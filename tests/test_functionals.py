import numpy as np
import pytest

from weakpathlab.core_paths import DiscretePath, PathMode, TimeGrid, make_uniform_grid, sup_norm
from weakpathlab.errors import InvalidArgumentError
from weakpathlab.functionals import (
    PathFunctional,
    integral_functional,
    point_functional,
    product_functional,
    smooth_max_functional,
    trapezoid,
    trapezoid_weights,
)
from weakpathlab.models import ou_model
from weakpathlab.mollifier import MollifierSpec, mollify
from weakpathlab.randomness import SeedSpec, sample_brownian
from weakpathlab.weak_error import FineGridReference, RateExperiment, coupled_bias

GRID = make_uniform_grid(1.0, 100)


def brownian_path(i):
    return sample_brownian(GRID, SeedSpec(123, i)).path


def as_path(values):
    return DiscretePath(GRID, values, PathMode.LINEAR)


def square_integral():
    return integral_functional(lambda u: u**2, lambda u: 2.0 * u, lambda u: 2.0 + 0.0 * u)


ALL_FUNCTIONALS = [
    product_functional(0.31, 0.87),
    point_functional(0.7),
    square_integral(),
    smooth_max_functional(2.0),
]


def central_d1(f, x, h):
    tau = 1e-4 * (1.0 + sup_norm(h))
    up = as_path(x.values + tau * h.values)
    down = as_path(x.values - tau * h.values)
    return (f.eval(up) - f.eval(down)) / (2 * tau)


def central_d2(f, x, h1, h2):
    tau = 1e-4 * (1.0 + max(sup_norm(h1), sup_norm(h2)))
    pp = as_path(x.values + tau * h1.values + tau * h2.values)
    pm = as_path(x.values + tau * h1.values - tau * h2.values)
    mp = as_path(x.values - tau * h1.values + tau * h2.values)
    mm = as_path(x.values - tau * h1.values - tau * h2.values)
    return (f.eval(pp) - f.eval(pm) - f.eval(mp) + f.eval(mm)) / (4 * tau**2)


class TestProductFunctional:
    def test_zero_path(self):
        assert product_functional(0.2, 0.9).eval(as_path(np.zeros(101))) == 0.0

    def test_euler_homogeneity(self):
        f = product_functional(0.25, 0.75)
        x = brownian_path(0)
        assert f.d1(x, x) == pytest.approx(2 * f.eval(x), rel=1e-12)

    def test_d2_symmetry(self):
        f = product_functional(0.25, 0.75)
        x, h1, h2 = brownian_path(1), brownian_path(2), brownian_path(3)
        assert f.d2(x, h1, h2) == f.d2(x, h2, h1)

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidArgumentError):
            product_functional(-0.1, 0.5)


class TestPointFunctional:
    def test_ramp_value(self):
        f = point_functional(0.7)
        assert f.eval(as_path(GRID.nodes.copy())) == pytest.approx(0.7, rel=1e-14)

    def test_d1_independent_of_base(self):
        f = point_functional(0.7)
        h = brownian_path(4)
        assert f.d1(brownian_path(5), h) == f.d1(brownian_path(6), h)

    def test_d2_vanishes(self):
        f = point_functional(0.7)
        assert f.d2(brownian_path(7), brownian_path(8), brownian_path(9)) == 0.0


class TestIntegralFunctional:
    def test_identity_on_constant(self):
        f = integral_functional(lambda u: u, lambda u: 1.0 + 0.0 * u, lambda u: 0.0 * u)
        assert f.eval(as_path(np.full(101, 2.5))) == pytest.approx(2.5, rel=1e-12)

    def test_square_of_ramp(self):
        # integral of t^2 dt = 1/3, trapezoid error O(mesh^2)
        f = square_integral()
        assert f.eval(as_path(GRID.nodes.copy())) == pytest.approx(1.0 / 3.0, abs=2e-4)

    def test_d1_against_quadrature(self):
        # d/du integral u^2 in direction 1 along x=t: integral 2t dt = 1
        f = square_integral()
        x = as_path(GRID.nodes.copy())
        h = as_path(np.ones(101))
        assert f.d1(x, h) == pytest.approx(1.0, abs=2e-4)


class TestSmoothMax:
    def test_constant_path_exact(self):
        f = smooth_max_functional(3.0)
        assert f.eval(as_path(np.full(101, -1.3))) == pytest.approx(-1.3, rel=1e-12)

    def test_bounded_by_sup_norm(self):
        f = smooth_max_functional(2.0)
        for i in range(10):
            x = brownian_path(i)
            assert f.eval(x) <= sup_norm(x) + 1e-12

    def test_monotone_in_beta_to_max(self):
        x = as_path(GRID.nodes.copy())
        vals = [smooth_max_functional(b).eval(x) for b in (1.0, 10.0, 100.0)]
        assert vals[0] < vals[1] < vals[2] < 1.0

    def test_shifted_form_stays_finite_for_large_beta_times_sup(self):
        # beta * sup|x| = 800 lies beyond the exp range unshifted; the
        # shifted log-mean-exp and weights are exact here
        f = smooth_max_functional(100.0)
        x = as_path(np.full(101, 8.0))
        assert f.eval(x) == 8.0
        assert f.d1(x, as_path(np.ones(101))) == 1.0
        # OU paths with beta * sup|x| > 700 in some samples: the whole rung
        # is estimated, nothing excluded
        exp = RateExperiment(
            model=ou_model(1.0, 1.0, 1.0), functional=smooth_max_functional(250.0), horizon=1.0,
            deltas=(0.25, 0.125, 0.0625), n_base=20000, reference=FineGridReference(4),
            seed=SeedSpec(1),
        )
        point = coupled_bias(exp, 0)
        assert np.isfinite(point.bias) and point.excluded == 0 and point.n_samples == 20000

    def test_invalid_beta(self):
        with pytest.raises(InvalidArgumentError):
            smooth_max_functional(0.0)


def test_functional_without_batch_hooks_rejected():
    f = point_functional(0.5)
    with pytest.raises(InvalidArgumentError):
        PathFunctional(name="bare", eval=f.eval, d1=f.d1, d2=f.d2, growth_exponent=1.0)
    with pytest.raises(InvalidArgumentError):  # probe hooks without their times
        PathFunctional(name="timeless", eval=f.eval, d1=f.d1, d2=f.d2, growth_exponent=1.0,
                       probe_eval=f.probe_eval, probe_d1=f.probe_d1)


class TestDerivativeAudit:
    @pytest.mark.parametrize("f", ALL_FUNCTIONALS, ids=lambda f: f.name)
    def test_d1_matches_central_difference(self, f):
        for i in range(25):
            x, h = brownian_path(10 + i), brownian_path(200 + i)
            claimed = f.d1(x, h)
            fd = central_d1(f, x, h)
            assert abs(claimed - fd) <= 1e-4 * (1.0 + abs(claimed))

    @pytest.mark.parametrize("f", ALL_FUNCTIONALS, ids=lambda f: f.name)
    def test_d2_matches_second_difference(self, f):
        for i in range(25):
            x, h1, h2 = brownian_path(20 + i), brownian_path(300 + i), brownian_path(400 + i)
            claimed = f.d2(x, h1, h2)
            fd = central_d2(f, x, h1, h2)
            assert abs(claimed - fd) <= 1e-4 * (1.0 + abs(claimed)) + 1e-5

    @pytest.mark.parametrize("f", ALL_FUNCTIONALS, ids=lambda f: f.name)
    def test_d2_symmetric(self, f):
        x, h1, h2 = brownian_path(30), brownian_path(31), brownian_path(32)
        assert f.d2(x, h1, h2) == pytest.approx(f.d2(x, h2, h1), rel=1e-12, abs=1e-15)


class TestGrowthAudit:
    @pytest.mark.parametrize("f", ALL_FUNCTIONALS, ids=lambda f: f.name)
    def test_polynomial_growth(self, f):
        x = brownian_path(40)
        base = 1.0 + abs(f.eval(x))
        for lam in (1.0, 2.0, 4.0, 8.0):
            val = abs(f.eval(as_path(lam * x.values)))
            assert val <= 4.0 * base * lam**f.growth_exponent

    @pytest.mark.parametrize("f", ALL_FUNCTIONALS, ids=lambda f: f.name)
    def test_mollified_composition_same_growth(self, f):
        # f o M has the same growth constant: M is a sup-norm contraction
        spec = MollifierSpec(0.05, 64)
        for i in range(10):
            x = brownian_path(50 + i)
            mollified = abs(f.eval(mollify(spec, x)))
            c = 4.0 * (1.0 + abs(f.eval(x))) / (1.0 + sup_norm(x) ** f.growth_exponent)
            assert mollified <= c * (1.0 + sup_norm(x) ** f.growth_exponent)


class TestBatchHooks:
    @pytest.mark.parametrize("f", ALL_FUNCTIONALS, ids=lambda f: f.name)
    def test_batch_matches_scalar(self, f):
        values = np.stack([brownian_path(60 + i).values for i in range(5)])
        if f.probe_times is not None and f.probe_eval is not None:
            from weakpathlab.core_paths import interpolate_values

            probes = interpolate_values(
                GRID.nodes, values, np.asarray(f.probe_times), PathMode.LINEAR
            )
            batch = f.probe_eval(probes)
        else:
            batch = f.batch_eval(values, GRID, PathMode.LINEAR)
        scalar = [f.eval(as_path(v)) for v in values]
        assert np.allclose(batch, scalar, rtol=1e-12)

    @pytest.mark.parametrize("f", ALL_FUNCTIONALS, ids=lambda f: f.name)
    def test_batch_d1_matches_scalar(self, f):
        xs = np.stack([brownian_path(70 + i).values for i in range(4)])
        hs = np.stack([brownian_path(80 + i).values for i in range(4)])
        if f.probe_times is not None and f.probe_d1 is not None:
            from weakpathlab.core_paths import interpolate_values

            t = np.asarray(f.probe_times)
            batch = f.probe_d1(
                interpolate_values(GRID.nodes, xs, t, PathMode.LINEAR),
                interpolate_values(GRID.nodes, hs, t, PathMode.LINEAR),
            )
        else:
            batch = f.batch_d1(xs, hs, GRID, PathMode.LINEAR)
        scalar = [f.d1(as_path(x), as_path(h)) for x, h in zip(xs, hs)]
        assert np.allclose(batch, scalar, rtol=1e-12)


# the trapezoid kernel is checked on a uniform and a non-uniform grid
KERNEL_GRIDS = [
    make_uniform_grid(1.0, 128),
    TimeGrid(np.concatenate([[0.0], np.sort(np.random.default_rng(5).uniform(0.0, 2.0, 96)), [2.0]])),
]


def kernel_batch(grid, rows=7, seed=0):
    return np.random.default_rng(seed).standard_normal((rows, grid.nodes.size)).cumsum(axis=1)


class TestTrapezoidKernel:
    def test_weights(self):
        nodes = np.array([0.0, 0.5, 1.25, 2.0])
        assert np.array_equal(trapezoid_weights(nodes), [0.25, 0.625, 0.75, 0.375])
        assert trapezoid_weights(np.array([0.0])).tolist() == [0.0]

    @pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=["uniform", "non-uniform"])
    def test_batches_match_numpy_trapezoid(self, grid):
        # tolerance fixed before measuring: (n + 4) unit roundoffs of the
        # absolute integrand, n the number of intervals
        w = trapezoid_weights(grid.nodes)
        v, h = kernel_batch(grid), kernel_batch(grid, seed=1)
        f = square_integral()
        for got, integrand in (
            (f.batch_eval(v, grid, PathMode.LINEAR), v**2),
            (f.batch_d1(v, h, grid, PathMode.LINEAR), 2.0 * v * h),
            (trapezoid(np.exp(v), grid.nodes), np.exp(v)),
        ):
            want = np.trapezoid(integrand, grid.nodes, axis=-1)
            tol = (grid.n_intervals + 4) * 2.0**-52 * (np.abs(integrand) @ w)
            assert np.all(np.abs(got - want) <= tol)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("f", [square_integral(), smooth_max_functional(3.0)],
                             ids=lambda f: f.name)
    def test_non_finite_row_changes_only_its_own_output(self, f):
        grid = KERNEL_GRIDS[1]
        v, h = kernel_batch(grid), kernel_batch(grid, seed=1)
        clean = f.batch_eval(v, grid, PathMode.LINEAR), f.batch_d1(v, h, grid, PathMode.LINEAR)
        for bad in (np.nan, np.inf):
            dirty = v.copy()
            dirty[3, 17] = bad
            out = f.batch_eval(dirty, grid, PathMode.LINEAR), f.batch_d1(dirty, h, grid, PathMode.LINEAR)
            for got, want in zip(out, clean):
                assert not np.isfinite(got[3])
                assert np.array_equal(np.delete(got, 3), np.delete(want, 3))

    @pytest.mark.parametrize("f", [square_integral(), smooth_max_functional(3.0)],
                             ids=lambda f: f.name)
    @pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=["uniform", "non-uniform"])
    def test_path_and_batch_forms_agree_bitwise(self, f, grid):
        v, h = kernel_batch(grid), kernel_batch(grid, seed=1)
        batch = f.batch_eval(v, grid, PathMode.LINEAR)
        batch_d1 = f.batch_d1(v, h, grid, PathMode.LINEAR)
        for i in range(v.shape[0]):
            x, dx = DiscretePath(grid, v[i], PathMode.LINEAR), DiscretePath(grid, h[i], PathMode.LINEAR)
            one_row = f.batch_eval(v[i : i + 1], grid, PathMode.LINEAR)[0]
            assert f.eval(x) == one_row == batch[i]
            assert f.d1(x, dx) == f.batch_d1(v[i : i + 1], h[i : i + 1], grid, PathMode.LINEAR)[0]
            assert f.d1(x, dx) == batch_d1[i]
