import dataclasses

import numpy as np
import pytest

from weakpathlab import schemes
from weakpathlab.core_paths import (
    DiscretePath,
    interpolate_values,
    make_uniform_grid,
    refine_grid,
)
from weakpathlab.errors import InvalidArgumentError
from weakpathlab.models import SdeModel, constant_model, ou_model, sine_model
from weakpathlab.randomness import SeedSpec, sample_brownian
from weakpathlab.schemes import (
    euler_scan,
    euler_values_batch,
    stochastic_interpolation_batch,
    variation_values_batch,
)


def degenerate_model(b_const, sigma_const, xi0):
    """Raw coefficient bundle without nondegeneracy validation."""
    return SdeModel(
        b=lambda x: b_const + 0.0 * x,
        sigma=lambda x: sigma_const + 0.0 * x,
        db=lambda x: 0.0 * x,
        dsigma=lambda x: 0.0 * x,
        xi0=xi0,
        constant_sigma=True,
    )


def euler_path(model, w):
    """The Euler path Y along the increments of the Brownian path ``w``."""
    values = euler_values_batch(model, w.grid, np.diff(w.values)[None, :])[0]
    return DiscretePath(w.grid, values)


def reference_euler(model, grid, x0, dw, start=0):
    """The recursion written out step by step: columns start..N of the paths
    started from ``x0`` at node ``start``, dw being (m, N - start)."""
    dt = np.diff(grid.nodes)
    out = np.empty((dw.shape[0], grid.nodes.size - start))
    x = np.broadcast_to(np.asarray(x0, dtype=np.float64), (dw.shape[0],)).copy()
    out[:, 0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(start, dt.size):
            x = x + model.b(x) * dt[k] + model.sigma(x) * dw[:, k - start]
            out[:, k + 1 - start] = x
    return out


def blowup_model(xi0, scale):
    """b(x) = scale x^3 and sigma = 0: overflows to inf, then 0 * inf = NaN."""
    return SdeModel(
        b=lambda x: x**3 * scale,
        sigma=lambda x: 0.0 * x,
        db=lambda x: 3 * scale * x**2,
        dsigma=lambda x: 0.0 * x,
        xi0=xi0,
    )


class TestEulerScan:
    GRID = make_uniform_grid(1.0, 64)
    MODELS = {"ou": ou_model(1.3, 0.7, 0.4), "sine": sine_model(0.5, 1.0, 0.3)}

    def increments(self, rows, start, seed):
        n = self.GRID.n_intervals - start
        return np.sqrt(self.GRID.mesh) * SeedSpec(seed).rng().standard_normal((rows, n))

    @pytest.mark.parametrize("model", ["ou", "sine"])
    @pytest.mark.parametrize("rows", [1, 256])
    @pytest.mark.parametrize("start", [0, 29, 63])
    def test_matches_reference_loop(self, model, rows, start):
        model = self.MODELS[model]
        dw = self.increments(rows, start, rows + start)
        per_row = 0.2 + np.linspace(-1.0, 1.0, rows)
        for x0 in (0.7, per_row):
            want = reference_euler(model, self.GRID, x0, dw, start)
            got = euler_scan(model, self.GRID, x0, dw, start=start)
            # the same steps from a callable source of step rows, which needs
            # one start value per row
            by_step = np.ascontiguousarray(dw.T)
            lazy = euler_scan(
                model, self.GRID, np.broadcast_to(x0, (rows,)), lambda k: by_step[k - start],
                start=start,
            )
            keep = [start, (start + 64) // 2, 64] if start < 63 else [64]
            subset = euler_scan(model, self.GRID, x0, dw, start=start, keep=keep)
            for result, columns in ((got, slice(None)), (lazy, slice(None)), (subset, np.asarray(keep) - start)):
                assert np.array_equal(result, want[:, columns])
                # step-major: one contiguous row per kept node
                assert result.T.flags.c_contiguous

    @pytest.mark.parametrize(
        "keep", [[0, 10, 10, 99], [5, 10, 10], [4, 10], [5, 17], [10, 5], [5.0, 10.0], [[5, 10]]]
    )
    def test_rejects_a_bad_keep(self, keep):
        # keep must be a strictly increasing sequence of integers in [start, N]
        grid = make_uniform_grid(1.0, 16)
        with pytest.raises(InvalidArgumentError):
            euler_scan(ou_model(1.0, 1.0, 1.0), grid, 0.5, np.zeros((3, 11)), start=5, keep=keep)

    def test_accepts_every_valid_keep(self):
        grid = make_uniform_grid(1.0, 16)
        dw = 0.25 * SeedSpec(9).rng().standard_normal((3, 11))
        full = euler_scan(ou_model(1.0, 1.0, 1.0), grid, 0.5, dw, start=5)
        for keep in ([5, 16], np.array([6, 7, 15]), range(5, 17), []):
            got = euler_scan(ou_model(1.0, 1.0, 1.0), grid, 0.5, dw, start=5, keep=keep)
            assert np.array_equal(got, full[:, np.asarray(keep, dtype=int) - 5])

    def test_values_batch_matches_reference_loop(self):
        for model in self.MODELS.values():
            dw = self.increments(256, 0, 7)
            want = reference_euler(model, self.GRID, model.xi0, dw)
            assert np.array_equal(euler_values_batch(model, self.GRID, dw), want)

    def test_overflowing_row_propagates_like_reference(self):
        model = blowup_model(1.0, 1.0)
        dw = self.increments(4, 0, 8)
        x0 = np.array([0.5, 1e103, -0.25, 2.0])  # row 1 overflows at once, row 3 later
        got = euler_scan(model, self.GRID, x0, dw)
        want = reference_euler(model, self.GRID, x0, dw)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[1, -1]) and not np.isfinite(got[3, -1])
        assert np.all(np.isfinite(got[[0, 2]]))

    @pytest.mark.parametrize("model", ["ou", "sine"])
    def test_constructors_take_the_fused_step(self, model, monkeypatch):
        model = self.MODELS[model]
        # steps of 0.7/50, not a power of two, so that a reordered product
        # with dt would round differently
        grid = make_uniform_grid(0.7, 50)
        dw = np.sqrt(grid.mesh) * SeedSpec(12).rng().standard_normal((32, 50))
        want = reference_euler(model, grid, model.xi0, dw)

        def no_generic_step(b, sigma):
            raise AssertionError("the generic step ran")

        monkeypatch.setattr(schemes, "_generic_step", no_generic_step)
        assert np.array_equal(euler_values_batch(model, grid, dw), want)
        # a copy with the same evaluators keeps the fused step
        copy = dataclasses.replace(model, name="copy")
        assert np.array_equal(euler_values_batch(copy, grid, dw), want)
        with pytest.raises(AssertionError, match="generic step"):
            euler_values_batch(dataclasses.replace(model, euler_step=None), grid, dw)

    @pytest.mark.parametrize(
        "model", [ou_model(1.3, 0.7, 0.4), ou_model(4.0, 0.7, 0.4), sine_model(0.5, 1.0, 0.3)]
    )
    def test_fused_step_is_the_generic_step_at_extreme_rows(self, model):
        # +-inf and NaN rows become NaN on both steps; 1e308 overflows the
        # OU drift at theta = 4 and stays finite at theta = 1.3
        x0 = np.array([np.inf, -np.inf, np.nan, 1e308, -1e308, 0.3, -5.0])
        dw = self.increments(x0.size, 0, 13)
        fused = euler_scan(model, self.GRID, x0, dw)
        generic = euler_scan(dataclasses.replace(model, euler_step=None), self.GRID, x0, dw)
        assert np.array_equal(fused, generic, equal_nan=True)
        assert np.array_equal(fused, reference_euler(model, self.GRID, x0, dw), equal_nan=True)
        assert np.isnan(fused[:3, -1]).all() and np.isfinite(fused[5:, -1]).all()

    @pytest.mark.parametrize("model", ["ou", "sine"])
    @pytest.mark.parametrize(
        "coefficient", [{"b": lambda x: 0.5 - x**3}, {"sigma": lambda x: 0.2 + 0.1 * x**2}]
    )
    def test_replaced_coefficients_are_followed(self, model, coefficient):
        model = self.MODELS[model]
        replaced = dataclasses.replace(model, **coefficient)
        dw = self.increments(64, 0, 14)
        got = euler_values_batch(replaced, self.GRID, dw)
        assert np.array_equal(got, reference_euler(replaced, self.GRID, replaced.xi0, dw))
        assert not np.array_equal(got, euler_values_batch(model, self.GRID, dw))


class TestDegenerateDynamics:
    def test_frozen_dynamics(self):
        grid = make_uniform_grid(1.0, 8)
        w = sample_brownian(grid, SeedSpec(1))
        y = euler_path(degenerate_model(0.0, 0.0, 2.5), w)
        assert np.all(y.values == 2.5)

    def test_pure_drift(self):
        grid = make_uniform_grid(1.0, 8)
        w = sample_brownian(grid, SeedSpec(2))
        y = euler_path(degenerate_model(1.0, 0.0, 0.5), w)
        assert np.allclose(y.values, 0.5 + grid.nodes, atol=1e-14)

    def test_pure_noise(self):
        grid = make_uniform_grid(1.0, 8)
        w = sample_brownian(grid, SeedSpec(3))
        y = euler_path(degenerate_model(0.0, 1.0, 0.5), w)
        assert np.allclose(y.values, 0.5 + w.values, atol=1e-14)


class TestLinearInterpolation:
    def test_node_and_midpoint_values(self):
        grid = make_uniform_grid(1.0, 4)
        w = sample_brownian(grid, SeedSpec(5))
        y = euler_path(ou_model(1.0, 1.0, 1.0), w)
        at = interpolate_values(grid.nodes, y.values, np.append(grid.nodes, 0.125))
        assert np.array_equal(at[:-1], y.values)
        assert at[-1] == pytest.approx(0.5 * (y.values[0] + y.values[1]), rel=1e-14)

    def test_constant_nodes(self):
        grid = make_uniform_grid(1.0, 4)
        w = sample_brownian(grid, SeedSpec(6))
        y = euler_path(degenerate_model(0.0, 0.0, 1.5), w)
        assert interpolate_values(grid.nodes, y.values, 0.3) == 1.5


class TestStochasticInterpolation:
    def setup_method(self):
        self.coarse = make_uniform_grid(1.0, 4)
        self.fine = refine_grid(self.coarse, 16)
        self.idx = self.fine.indices_of_subgrid(self.coarse)
        self.w_fine = sample_brownian(self.fine, SeedSpec(7))

    def scheme(self, model, w_fine):
        """Y on the coarse grid and X~ on the fine grid, both driven by the
        fine Brownian values ``w_fine`` (one row per path)."""
        y = euler_values_batch(model, self.coarse, np.diff(w_fine[:, self.idx]))
        return y, stochastic_interpolation_batch(model, self.coarse, self.fine, y, w_fine)

    def test_nodal_agreement_exact(self):
        y, x_tilde = self.scheme(ou_model(1.0, 1.0, 1.0), self.w_fine.values[None, :])
        assert np.array_equal(x_tilde[:, self.idx], y)

    def test_zero_diffusion_reduces_to_linear(self):
        y, x_tilde = self.scheme(degenerate_model(1.3, 0.0, 0.2), self.w_fine.values[None, :])
        expect = interpolate_values(self.coarse.nodes, y, self.fine.nodes)
        assert np.allclose(x_tilde, expect, atol=1e-12)

    def test_pure_noise_bridge_identity(self):
        # X~(t) - Y(t) = (W(t)-W(tau_n)) - (t-tau_n)/(tau_{n+1}-tau_n) (W(tau_{n+1})-W(tau_n))
        y, x_tilde = self.scheme(degenerate_model(0.0, 1.0, 0.0), self.w_fine.values[None, :])
        y_fine = interpolate_values(self.coarse.nodes, y[0], self.fine.nodes)
        w = self.w_fine.values
        for j, t in enumerate(self.fine.nodes):
            n = min(np.searchsorted(self.coarse.nodes, t, side="right") - 1, 3)
            ta, tb = self.coarse.nodes[n], self.coarse.nodes[n + 1]
            wa, wb = w[self.idx[n]], w[self.idx[n + 1]]
            bridge = (w[j] - wa) - (t - ta) / (tb - ta) * (wb - wa)
            assert x_tilde[0, j] - y_fine[j] == pytest.approx(bridge, abs=1e-12)

    def test_mean_zero_gap_at_fine_nodes(self):
        model = degenerate_model(0.0, 1.0, 0.0)
        seed = SeedSpec(9)
        n = 4000
        w_fine = np.array(
            [sample_brownian(self.fine, seed.with_stream(i)).values for i in range(n)]
        )
        y, x_tilde = self.scheme(model, w_fine)
        t = self.fine.nodes[7]
        gaps = x_tilde[:, 7] - interpolate_values(self.coarse.nodes, y, [t])[:, 0]
        se = gaps.std(ddof=1) / np.sqrt(n)
        assert abs(gaps.mean()) <= 4 * se


class TestFineReference:
    def test_ou_terminal_mean(self):
        # closed-form oracle: E X(1) = e^{-1}; fine Euler within 4 SE + O(mesh)
        # one batch over the increments of 20,000 sampled Brownian paths
        model = ou_model(1.0, 1.0, 1.0)
        fine = make_uniform_grid(1.0, 256)
        seed = SeedSpec(10)
        n = 20_000
        paths = [sample_brownian(fine, seed.with_stream(i)) for i in range(n)]
        dw = np.diff([w.values for w in paths], axis=1)
        vals = euler_values_batch(model, fine, dw)[:, -1]
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - np.exp(-1.0)) <= 4 * se + 2.0 / 256

    def test_frozen_dynamics_constant(self):
        model = degenerate_model(0.0, 0.0, 3.3)
        grid = make_uniform_grid(1.0, 64)
        w = sample_brownian(grid, SeedSpec(11))
        assert np.all(euler_values_batch(model, grid, np.diff(w.values)[None, :]) == 3.3)

    def test_same_grid_equals_euler(self):
        model = ou_model(1.0, 1.0, 1.0)
        grid = make_uniform_grid(1.0, 16)
        w = sample_brownian(grid, SeedSpec(13))
        dw = np.diff(w.values)[None, :]
        batch = euler_values_batch(model, grid, dw)
        assert np.array_equal(batch, reference_euler(model, grid, model.xi0, dw))


def variation_path(model, fine, w, start=0):
    """Z along the Euler path of ``w``, with Z = 1 at node ``start``."""
    dw = np.diff(w.values)[None, :]
    base = euler_values_batch(model, fine, dw)
    return variation_values_batch(model, base, fine, dw[:, start:], start)[0]


class TestFirstVariation:
    def test_ou_exponential(self):
        # sigma' = 0: dZ = -theta Z dt, Z(1) -> e^{-theta} with O(mesh) error
        model = ou_model(1.0, 1.0, 1.0)
        fine = make_uniform_grid(1.0, 512)
        z = variation_path(model, fine, sample_brownian(fine, SeedSpec(14)))
        assert z[0] == 1.0
        assert z[-1] == pytest.approx(np.exp(-1.0), abs=2.0 / 512)

    def test_constant_coefficients_identity(self):
        model = constant_model(0.0, 1.0, 0.0)
        fine = make_uniform_grid(1.0, 64)
        z = variation_path(model, fine, sample_brownian(fine, SeedSpec(15)))
        assert np.all(z == 1.0)

    def test_flow_property_of_restarts(self):
        # restarting Euler at (t, X(t)) with the same subsequent increments
        # reproduces X on [t, T] exactly
        model = ou_model(1.3, 0.7, 0.4)
        fine = make_uniform_grid(1.0, 64)
        w = sample_brownian(fine, SeedSpec(17))
        x = euler_path(model, w).values
        k = 24
        restart = x[k]
        dw = np.diff(w.values)
        for j in range(k, 64):
            restart = restart + float(model.b(restart)) * (1.0 / 64) + float(
                model.sigma(restart)
            ) * dw[j]
            assert restart == x[j + 1]

    def test_zero_on_the_frozen_prefix(self):
        # X before node k does not move with X(tau_k); the output is stored
        # step-major, as euler_scan stores paths
        model = sine_model(0.5, 1.0, 0.3)
        fine = make_uniform_grid(1.0, 64)
        dw = np.diff(sample_brownian(fine, SeedSpec(18)).values)[None, :]
        k = 24
        z = variation_values_batch(model, euler_values_batch(model, fine, dw), fine, dw[:, k:], k)
        assert np.all(z[0, :k] == 0.0) and z[0, k] == 1.0
        assert z.T.flags.c_contiguous

    def test_chain_rule_exact_on_common_noise(self):
        # Z^0(T) = Z^t(T) Z^0(t): per-step factors telescope exactly
        from weakpathlab.models import sine_model

        model = sine_model(0.5, 1.0, 0.3)
        fine = make_uniform_grid(1.0, 128)
        w = sample_brownian(fine, SeedSpec(16))
        z_full = variation_path(model, fine, w)
        k = fine.index_of(0.5)
        z_restart = variation_path(model, fine, w, start=k)
        lhs = z_full[-1]
        rhs = z_restart[-1] * z_full[k]
        assert lhs == pytest.approx(rhs, rel=1e-12)
