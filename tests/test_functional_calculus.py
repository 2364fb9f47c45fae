import dataclasses
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import weakpathlab.functional_calculus as fc

from weakpathlab.core_paths import (
    DiscretePath,
    PathMode,
    TimeGrid,
    make_uniform_grid,
    refine_grid,
)
from weakpathlab.errors import (
    BudgetExceededError,
    InsufficientSignalError,
    InvalidArgumentError,
    NumericalOverflowError,
    OutOfRangeError,
)
from weakpathlab.functional_calculus import (
    ErrorRepresentationReport,
    NestedEstimate,
    ResidualReport,
    error_representation_sides,
    estimate_F,
    horizontal_derivative,
    ito_rms_study,
    kolmogorov_residual,
    martingale_gap,
    second_vertical_derivative,
    vertical_derivative,
)
from weakpathlab.functionals import (
    integral_functional,
    point_functional,
    product_functional,
    smooth_max_functional,
)
from weakpathlab.models import SdeModel, constant_model, ou_model, sine_model
from weakpathlab.mollifier import MollifierSpec, band_tiles, mollify, mollify_operator
from weakpathlab.randomness import SeedSpec, sample_brownian
from weakpathlab.schemes import euler_scan, euler_values_batch, stochastic_interpolation_batch

FINE = make_uniform_grid(1.0, 128)
EPS = 2.0 / 128
OU = ou_model(1.0, 1.0, 1.0)
SINE = sine_model(0.5, 1.0, 0.5)


def frozen_model(xi0):
    return SdeModel(
        b=lambda x: 0.0 * x,
        sigma=lambda x: 0.0 * x,
        db=lambda x: 0.0 * x,
        dsigma=lambda x: 0.0 * x,
        xi0=xi0,
        constant_sigma=True,
    )


def constant_prefix(t, value, fine=FINE):
    i = fine.index_of(t)
    return DiscretePath(TimeGrid(fine.nodes[: i + 1]), np.full(i + 1, value))


SQUARE_INTEGRAL = integral_functional(lambda u: u**2, lambda u: 2.0 * u, lambda u: 2.0 + 0.0 * u)


class TestMollifiedBlocks:
    """f o M_eps on inputs larger than one block: row blocks are mollified
    and evaluated one at a time.  A block's gemm may sum a row in another
    order than the one-shot product, so the two agree to rounding, not
    bit for bit."""

    SPEC = MollifierSpec(0.25)
    ROWS = 350

    @staticmethod
    def grid(nodes):
        return make_uniform_grid(1.0, nodes - 1)

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        # at most 100 rows of 513 nodes per block: blocks of 88, 88, 87, 87
        monkeypatch.setattr(fc, "_BLOCK_BYTES", 100 * 513 * 8)

    def paths(self, seed, nodes):
        rng = np.random.default_rng(seed)
        return np.cumsum(rng.standard_normal((self.ROWS, nodes)), axis=1) * 0.03

    @staticmethod
    def recording(f, sizes):
        def wrapped(*args):
            sizes.append(len(args[0]))
            return f.batch_eval(*args)

        return dataclasses.replace(f, batch_eval=wrapped)

    @pytest.mark.parametrize(
        "f, lipschitz",
        [
            (SQUARE_INTEGRAL, lambda mx: 2.0 * np.abs(mx).max(axis=1)),
            (smooth_max_functional(5.0), lambda mx: 1.0),
        ],
        ids=["integral-square", "smooth-max"],
    )
    def test_blocked_matches_one_shot_to_rounding(self, small_blocks, f, lipschitz):
        grid = self.grid(513)
        op = mollify_operator(self.SPEC, grid, PathMode.LINEAR).T
        x = self.paths(50, 513)
        sizes = []
        got = fc._feps_batch(self.recording(f, sizes), self.SPEC, grid, x)
        assert sizes == [88, 88, 87, 87]
        one_shot = x @ op
        want = f.batch_eval(one_shot, grid)
        # two summation orders of a 513-term dot product differ by at most
        # 2 n u |x| |a|; f carries that through its sup-norm Lipschitz
        # constant, and its own trapezoid adds n u |f|
        u = np.finfo(np.float64).eps / 2
        n = grid.nodes.size
        scale = (np.abs(x) @ np.abs(op)).max(axis=1)
        tol = 2 * n * u * lipschitz(one_shot) * scale + 2 * n * u * np.abs(want)
        assert np.all(np.abs(got - want) <= tol)

    def test_one_block_is_the_one_shot_product(self):
        grid = self.grid(513)
        x = self.paths(51, 513)
        sizes = []
        got = fc._feps_batch(self.recording(SQUARE_INTEGRAL, sizes), self.SPEC, grid, x)
        mollified = fc._mollifier(self.SPEC, grid)(x)
        assert sizes == [self.ROWS]
        assert np.array_equal(got, SQUARE_INTEGRAL.batch_eval(mollified, grid))

    def test_nan_row_changes_only_its_own_output(self, small_blocks):
        f = smooth_max_functional(5.0)
        grid = self.grid(513)
        x = self.paths(52, 513)
        clean = fc._feps_batch(f, self.SPEC, grid, x)
        x[200, 300] = np.nan
        got = fc._feps_batch(f, self.SPEC, grid, x)
        others = np.arange(self.ROWS) != 200
        assert np.isnan(got[200])
        assert np.array_equal(got[others], clean[others])


class TestNonFiniteRows:
    """A row with a non-finite value gives a non-finite f_eps, as the dense
    product's 0 * inf terms do, although band tiles skip those terms.  The
    513- and 1025-node operators have residue-class tiles (g = 2 and 4),
    where row 0's inf sits in column 0, the rank-one term."""

    @pytest.mark.parametrize(
        "nodes, eps, step", [(129, 2.0 / 128, 1), (129, 0.25, 1), (513, 0.25, 2), (1025, 0.25, 4)]
    )
    @pytest.mark.parametrize(
        "f", [smooth_max_functional(4.0), SQUARE_INTEGRAL], ids=["smooth-max", "integral-square"]
    )
    def test_same_rows_non_finite_as_dense(self, nodes, eps, step, f):
        spec, grid = MollifierSpec(eps), make_uniform_grid(1.0, nodes - 1)
        assert band_tiles(spec, grid).step == step
        rng = np.random.default_rng(53)
        x = np.cumsum(rng.standard_normal((nodes + 3, nodes)), axis=1) * 0.1
        # row k is -inf or +inf at node k alone (the first and last nodes
        # included); the last three rows stay finite
        x[np.arange(nodes), np.arange(nodes)] = np.where(np.arange(nodes) % 2, np.inf, -np.inf)
        with np.errstate(invalid="ignore"):
            got = fc._feps_batch(f, spec, grid, x)
            by_step = fc._feps_batch(f, spec, grid, np.ascontiguousarray(x.T).T)
            dense = f.batch_eval(x @ mollify_operator(spec, grid, PathMode.LINEAR).T, grid)
        assert np.array_equal(np.isfinite(got), np.arange(nodes + 3) >= nodes)
        assert np.array_equal(np.isfinite(got), np.isfinite(dense))
        assert np.array_equal(got, by_step, equal_nan=True)


class TestLayout:
    """Step-major rows, as euler_scan returns them, are the one layout; rows
    in C order give f_eps and its derivative to rounding.

    Each of these functionals is a polynomial with nonnegative coefficients
    in path values, and the probe rows, the operator and the trapezoid
    weights are nonnegative.  A summation order then errs by at most
    gamma_{3n+1}, about 3 n u, times the same evaluation on |x| (and |h|),
    so two orders differ by at most 8 n u times it."""

    @pytest.mark.parametrize("nodes, eps", [(129, None), (129, 2.0 / 128), (513, 0.25)])
    @pytest.mark.parametrize(
        "f",
        [point_functional(0.7), product_functional(0.3, 1.0), SQUARE_INTEGRAL],
        ids=["point", "product", "integral-square"],
    )
    def test_c_ordered_rows_agree_to_rounding(self, nodes, eps, f):
        spec = None if eps is None else MollifierSpec(eps)
        grid = make_uniform_grid(1.0, nodes - 1)
        rng = np.random.default_rng(54)
        x = np.cumsum(rng.standard_normal((300, nodes)), axis=1) * 0.1
        h = rng.standard_normal((300, nodes))
        by_step = [np.ascontiguousarray(v.T).T for v in (x, h)]
        bound = 8 * nodes * np.finfo(np.float64).eps / 2
        for evaluate, args in ((fc._feps_batch, (x,)), (fc._fd1_batch, (x, h))):
            want = evaluate(f, spec, grid, *by_step[: len(args)])
            got = evaluate(f, spec, grid, *args)
            tol = bound * evaluate(f, spec, grid, *(np.abs(v) for v in args))
            assert np.all(np.abs(got - want) <= tol)
            assert np.all(np.abs(got + 1e-9 - want) > tol)  # the bound sees a 1e-9 shift

    def test_mollified_probes_copy_no_path(self):
        # the probe product reads the step-major rows as they are
        spec, grid, f = MollifierSpec(0.25), make_uniform_grid(1.0, 512), product_functional(0.5, 1.0)
        dw = fc._draw_dw(grid, 0, 2000, SeedSpec(55).rng())
        x = euler_scan(OU, grid, OU.xi0, dw)
        want = fc._feps_batch(f, spec, grid, x)  # builds and caches the probe rows
        tracemalloc.start()
        try:
            got = fc._feps_batch(f, spec, grid, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < x.nbytes / 4


class TestHookRouting:
    """Every evaluation of f goes through its hooks: wrappers installed with
    dataclasses.replace, as the benchmark's tracer installs them, see every
    row and change no bit."""

    FUNCTIONALS = [
        point_functional(0.7), product_functional(0.3, 1.0), SQUARE_INTEGRAL,
        smooth_max_functional(2.0),
    ]
    HOOKS = ("probe_eval", "probe_d1", "probe_d2", "batch_eval", "batch_d1", "batch_d2")

    @classmethod
    def counted(cls, f, rows):
        def wrap(name, hook):
            def wrapped(*args):
                rows[name] = rows.get(name, 0) + len(args[0])
                return hook(*args)

            return wrapped

        hooks = {name: getattr(f, name) for name in cls.HOOKS if getattr(f, name) is not None}
        return dataclasses.replace(f, **{name: wrap(name, h) for name, h in hooks.items()})

    @pytest.mark.parametrize("eps", [EPS, None], ids=["mollified", "raw"])
    @pytest.mark.parametrize("f", FUNCTIONALS, ids=lambda f: f.name)
    def test_wrapped_hooks_count_every_row_and_keep_the_bits(self, f, eps):
        spec, rows = fc._spec(eps), {}
        wrapped = self.counted(f, rows)
        rng = np.random.default_rng(80)
        x = np.cumsum(rng.standard_normal((300, FINE.nodes.size)), axis=1) * 0.1
        h = rng.standard_normal((300, FINE.nodes.size))
        assert np.array_equal(fc._feps_batch(wrapped, spec, FINE, x),
                              fc._feps_batch(f, spec, FINE, x))
        assert np.array_equal(fc._fd1_batch(wrapped, spec, FINE, x, h),
                              fc._fd1_batch(f, spec, FINE, x, h))
        prefix = constant_prefix(0.5, 0.3)
        got, want = (estimate_F(OU, prefix, g, eps, 64, SeedSpec(81), FINE) for g in (wrapped, f))
        assert (got.value, got.std_error) == (want.value, want.std_error)
        kind = "probe" if f.probe_times is not None else "batch"
        assert rows == {f"{kind}_eval": 300 + 64, f"{kind}_d1": 300}


class TestEstimateF:
    def test_full_horizon_is_deterministic(self):
        w = sample_brownian(FINE, SeedSpec(1)).path
        f = product_functional(0.4, 1.0)
        est = estimate_F(OU, w, f, EPS, 500, SeedSpec(2), FINE)
        assert est.std_error == 0.0
        smooth = mollify(MollifierSpec(EPS), w).values
        want = np.interp(0.4, FINE.nodes, smooth) * smooth[-1]
        assert est.value == pytest.approx(want, rel=1e-12)

    def test_frozen_dynamics_exact(self):
        model = frozen_model(1.7)
        prefix = constant_prefix(0.5, 1.7)
        est = estimate_F(model, prefix, point_functional(1.0), EPS, 64, SeedSpec(3), FINE)
        assert est.value == pytest.approx(1.7, rel=1e-12)
        assert est.std_error <= 1e-15  # identical samples, up to np.mean rounding

    def test_ou_mean_oracle(self):
        prefix = constant_prefix(0.0, 1.0)
        est = estimate_F(OU, prefix, point_functional(1.0), EPS, 20_000, SeedSpec(4), FINE)
        # e^{-1} plus a half-window mollifier shift and O(mesh) Euler bias
        allowance = np.exp(-1.0) * (EPS / 2 + 2.0 / 128)
        assert abs(est.value - np.exp(-1.0)) <= 4 * est.std_error + allowance

    def test_deterministic_in_seed(self):
        prefix = constant_prefix(0.5, 1.0)
        a = estimate_F(OU, prefix, point_functional(1.0), EPS, 200, SeedSpec(5), FINE)
        b = estimate_F(OU, prefix, point_functional(1.0), EPS, 200, SeedSpec(5), FINE)
        assert a.value == b.value and a.std_error == b.std_error

    def test_prefix_must_match_fine_grid(self):
        other = make_uniform_grid(0.5, 32)
        prefix = DiscretePath(other, np.ones(33))
        with pytest.raises(InvalidArgumentError):
            estimate_F(OU, prefix, point_functional(1.0), EPS, 16, SeedSpec(6), FINE)


class TestVerticalDerivative:
    def test_frozen_dynamics_unit_gradient(self):
        model = frozen_model(0.8)
        prefix = constant_prefix(0.5, 0.8)
        vd = vertical_derivative(model, prefix, point_functional(1.0), EPS, 64, 1e-2, SeedSpec(7), FINE)
        assert vd.central.value == pytest.approx(1.0, rel=1e-12)
        assert vd.pairing.value == pytest.approx(1.0, rel=1e-12)

    def test_ou_exponential_sensitivity(self):
        prefix = constant_prefix(0.5, 1.0)
        vd = vertical_derivative(OU, prefix, point_functional(1.0), EPS, 4000, 1e-2, SeedSpec(8), FINE)
        target = np.exp(-0.5)
        allowance = target * (EPS / 2 + 2.0 / 128) + 1e-4
        assert abs(vd.central.value - target) <= 4 * vd.central.std_error + allowance

    def test_past_probes_insensitive_exactly(self):
        prefix = constant_prefix(0.5, 1.0)
        f = product_functional(0.1, 0.2)  # both probes at least eps below t
        vd = vertical_derivative(OU, prefix, f, EPS, 256, 1e-2, SeedSpec(9), FINE)
        assert vd.central.value == 0.0
        assert vd.pairing.value == 0.0

    def test_two_estimators_agree_on_sine(self):
        prefix = constant_prefix(0.5, 0.5)
        bump = 1e-2
        vd = vertical_derivative(SINE, prefix, point_functional(1.0), EPS, 20_000, bump, SeedSpec(10), FINE)
        combined = np.hypot(vd.central.std_error, vd.pairing.std_error)
        assert abs(vd.central.value - vd.pairing.value) <= 4 * combined + 10 * bump**2

    def test_bump_must_be_positive(self):
        prefix = constant_prefix(0.5, 1.0)
        with pytest.raises(InvalidArgumentError):
            vertical_derivative(OU, prefix, point_functional(1.0), EPS, 16, 0.0, SeedSpec(11), FINE)

    def test_bitwise_deterministic(self):
        prefix = constant_prefix(0.5, 0.5)
        runs = [
            vertical_derivative(SINE, prefix, point_functional(1.0), EPS, 300, 1e-2, SeedSpec(42), FINE)
            for _ in range(2)
        ]
        assert runs[0].central.value == runs[1].central.value
        assert runs[0].pairing.value == runs[1].pairing.value


class TestSecondVerticalDerivative:
    def test_linear_dynamics_vanishing(self):
        prefix = constant_prefix(0.5, 1.0)
        est = second_vertical_derivative(OU, prefix, point_functional(1.0), EPS, 2000, 1e-2, SeedSpec(12), FINE)
        assert abs(est.value) <= 4 * est.std_error + 1e-9

    def test_frozen_square_curvature(self):
        model = frozen_model(0.6)
        prefix = constant_prefix(0.5, 0.6)
        est = second_vertical_derivative(
            model, prefix, product_functional(1.0, 1.0), EPS, 64, 1e-2, SeedSpec(13), FINE
        )
        assert est.value == pytest.approx(2.0, rel=1e-9)

    def test_bump_guard(self):
        prefix = constant_prefix(0.5, 1.0)
        with pytest.raises(InvalidArgumentError):
            second_vertical_derivative(OU, prefix, point_functional(1.0), EPS, 16, -1e-2, SeedSpec(14), FINE)


class TestHorizontalDerivative:
    def test_frozen_dynamics_zero_exactly(self):
        model = frozen_model(0.9)
        w = sample_brownian(make_uniform_grid(0.5, 64), SeedSpec(15))
        prefix = DiscretePath(TimeGrid(FINE.nodes[:65]), 0.9 + w.values)
        est = horizontal_derivative(model, prefix, point_functional(1.0), EPS, 64, None, SeedSpec(16), FINE)
        assert est.value == 0.0

    def test_domain_guards(self):
        prefix = constant_prefix(1.0, 1.0)  # t = T
        with pytest.raises(OutOfRangeError):
            horizontal_derivative(OU, prefix, point_functional(1.0), EPS, 16, None, SeedSpec(17), FINE)
        prefix = constant_prefix(0.5, 1.0)
        with pytest.raises(OutOfRangeError):
            horizontal_derivative(OU, prefix, point_functional(1.0), EPS, 16, 0.75, SeedSpec(18), FINE)

    def test_off_node_step_rejected(self):
        prefix = constant_prefix(0.5, 1.0)
        with pytest.raises(InvalidArgumentError):
            horizontal_derivative(OU, prefix, point_functional(1.0), EPS, 16, 0.3 / 128, SeedSpec(19), FINE)

    def test_boundary_step_to_horizon_accepted(self):
        # t + h = T is allowed: the extension reaches the horizon exactly
        t = FINE.nodes[-2]
        prefix = constant_prefix(t, 1.0)
        est = horizontal_derivative(OU, prefix, point_functional(1.0), EPS, 64, 1.0 - t, SeedSpec(40), FINE)
        assert np.isfinite(est.value)


def reference_stencil(model, f, spec, prefix_values, offsets, dw):
    """f_eps of the continued paths built one offset at a time: euler_scan
    from the prefix's moved endpoint, glued after the prefix into a fresh
    step-major path, then evaluated."""
    i = prefix_values.shape[-1] - 1
    out = []
    for o in offsets:
        path = np.empty((FINE.nodes.size, len(dw)))
        path[:i] = np.reshape(prefix_values, (-1, i + 1))[:, :i].T
        path[i:] = euler_scan(model, FINE, prefix_values[..., -1] + o, dw, start=i).T
        out.append(fc._feps_batch(f, spec, FINE, path.T))
    return out


class TestStencil:
    """``_stencil`` on a held workspace gives the bits of the reference for
    every model kind, functional kind, prefix kind and start node."""

    ROWS = 48
    MODELS = {
        "ou": OU,
        "sine": SINE,
        "constant": constant_model(0.3, 0.7, 1.0),
        "generic": dataclasses.replace(SINE, b=lambda x: -np.sin(x)),
    }
    FUNCTIONALS = [
        point_functional(0.7), product_functional(0.3, 1.0), SQUARE_INTEGRAL,
        smooth_max_functional(2.0),
    ]

    def prefix(self, i, per_row):
        rng = np.random.default_rng(90 + i)
        shape = (self.ROWS, i + 1) if per_row else (i + 1,)
        return np.cumsum(rng.standard_normal(shape) * 0.1, axis=-1)

    @staticmethod
    def draws(i, rows, seed):
        """The reference's increments and the workspace holding its own
        draw of the same stream."""
        ws = fc._Workspace(FINE, rows)
        dw = ws.draw(SeedSpec(seed).rng(), i)
        want = fc._draw_dw(FINE, i, rows, SeedSpec(seed).rng())
        assert np.array_equal(dw, want)
        return ws, want

    @pytest.mark.parametrize("eps", [None, EPS], ids=["raw", "mollified"])
    @pytest.mark.parametrize("f", FUNCTIONALS, ids=lambda f: f.name)
    @pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
    @pytest.mark.parametrize(
        "i, per_row", [(64, False), (64, True), (128, False)], ids=["shared", "per-row", "t=T"]
    )
    def test_matches_the_reference_bit_for_bit(self, model, f, eps, i, per_row):
        spec, offsets = fc._spec(eps), (0.01, 0.0, -0.01)
        prefix = self.prefix(i, per_row)
        rows = 1 if i == FINE.n_intervals else self.ROWS
        ws, dw = self.draws(i, rows, 91)
        ws.hold(prefix)
        got = fc._stencil(model, f, spec, FINE, ws, prefix[..., -1], offsets, dw)
        want = reference_stencil(model, f, spec, prefix, offsets, dw)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("eps", [None, EPS], ids=["raw", "mollified"])
    @pytest.mark.parametrize("f", FUNCTIONALS, ids=lambda f: f.name)
    def test_kolmogorov_extension(self, f, eps):
        # the bumped stencil, then the flat extension by one step that
        # starts at i + 1, as the Kolmogorov batch runs them on one workspace
        spec, i = fc._spec(eps), 64
        prefix = self.prefix(i, False)
        x0 = prefix[-1]
        ws, dw = self.draws(i, self.ROWS, 92)
        ws.hold(prefix)
        got = fc._stencil(SINE, f, spec, FINE, ws, x0, (0.01, 0.0, -0.01), dw)
        ws.scan[i] = x0
        got += fc._stencil(SINE, f, spec, FINE, ws, x0, (0.0,), dw[:, 1:])
        want = reference_stencil(SINE, f, spec, prefix, (0.01, 0.0, -0.01), dw)
        want += reference_stencil(SINE, f, spec, np.append(prefix, x0), (0.0,), dw[:, 1:])
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("eps", [None, EPS], ids=["raw", "mollified"])
    def test_overflow_stays_non_finite_and_raises(self, eps):
        # |1 - theta dt| = 389 per step: the continuation from 0 overflows
        stiff, f, spec = ou_model(50000.0, 1.0, 1.0), SQUARE_INTEGRAL, fc._spec(eps)
        prefix = np.array([1.0])
        ws, dw = self.draws(0, self.ROWS, 93)
        ws.hold(prefix)
        (got,) = fc._stencil(stiff, f, spec, FINE, ws, prefix[-1], (0.0,), dw)
        (want,) = reference_stencil(stiff, f, spec, prefix, (0.0,), dw)
        assert not np.isfinite(got).any()
        assert np.array_equal(got, want, equal_nan=True)
        with pytest.raises(NumericalOverflowError):
            estimate_F(stiff, constant_prefix(0.0, 1.0), f, eps, self.ROWS, SeedSpec(93), FINE)


class TestWorkspaceOwnership:
    """A workspace belongs to one estimator call: concurrent calls and a
    call after one that raised see nothing of the others."""

    @staticmethod
    def configs():
        # the two Kolmogorov checks of the nested-checks benchmark workload
        return [
            (SINE, constant_prefix(0.5, 0.5), SQUARE_INTEGRAL, EPS, 1000, SeedSpec(7, 0), FINE),
            (OU, constant_prefix(0.25, 1.0), product_functional(0.6, 1.0), EPS, 1000,
             SeedSpec(7, 1), FINE),
        ]

    @staticmethod
    def run(args):
        return kolmogorov_residual(*args, n_outer=3)

    def test_two_threads_return_the_serial_reports(self):
        serial = [self.run(args) for args in self.configs()]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two calls as finely as possible
        try:
            with ThreadPoolExecutor(2) as pool:
                threaded = list(pool.map(self.run, self.configs(), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_call_after_an_overflow_is_a_fresh_call(self):
        fine = make_uniform_grid(1.0, 1024)
        prefix = constant_prefix(0.5, 1.0, fine)
        args = (prefix, point_functional(1.0), 2.0 * fine.mesh, 4, SeedSpec(8), fine)
        fresh = kolmogorov_residual(OU, *args, n_outer=2)
        with pytest.raises(NumericalOverflowError):
            kolmogorov_residual(ou_model(50000.0, 1.0, 1.0), *args, n_outer=2)
        assert kolmogorov_residual(OU, *args, n_outer=2) == fresh


class OneStream(SeedSpec):
    """A seed whose every ``rng`` call draws the same stream: the subkeys
    are ignored, so differently keyed draws of two calls coincide."""

    def rng(self, *subkeys: int) -> np.random.Generator:
        return SeedSpec.rng(self)


class TestChecksAreTheEstimators:
    """The consistency checks take their derivative samples from the
    difference rules of the public estimators: on one shared stream their
    numbers are the estimators' bit for bit."""

    SEED = OneStream(61)
    PREFIX = constant_prefix(0.5, 0.5)
    N_INNER = 500
    BUMP = fc.default_bump(0.5)

    def estimator(self, fn, step):
        return fn(SINE, self.PREFIX, SQUARE_INTEGRAL, EPS, self.N_INNER, step, self.SEED, FINE)

    def test_error_representation_factors(self):
        ws = fc._Workspace(FINE, self.N_INNER)
        grad, second = fc._grad_pair_at(
            SINE, SQUARE_INTEGRAL, fc._spec(EPS), FINE, ws, self.PREFIX.values, self.SEED.rng(),
            self.BUMP, need_second=True,
        )
        assert grad == self.estimator(vertical_derivative, self.BUMP).central.value
        assert second == self.estimator(second_vertical_derivative, self.BUMP).value

    def test_kolmogorov_terms(self):
        rep = kolmogorov_residual(
            SINE, self.PREFIX, SQUARE_INTEGRAL, EPS, self.N_INNER, self.SEED, FINE, n_outer=1
        )
        terms = rep.components
        assert terms["grad_F"] == self.estimator(vertical_derivative, self.BUMP).central.value
        assert terms["second_grad_F"] == self.estimator(second_vertical_derivative, self.BUMP).value
        assert terms["horizontal_term"] == self.estimator(horizontal_derivative, None).value


class TestKolmogorovResidual:
    def test_ou_point_passes(self):
        prefix = constant_prefix(0.5, 1.0)
        rep = kolmogorov_residual(
            OU, prefix, point_functional(1.0), EPS, 200, SeedSpec(20), FINE, n_outer=200
        )
        assert rep.passed

    def test_analytic_terms_for_ou_point(self):
        # F_t(x) = x(t) e^{-theta (T-t)}: horizontal term theta x e^{-theta(T-t)},
        # drift term -theta x e^{-theta(T-t)}, curvature zero
        prefix = constant_prefix(0.5, 1.0)
        rep = kolmogorov_residual(
            OU, prefix, point_functional(1.0), EPS, 400, SeedSpec(21), FINE, n_outer=300
        )
        target = np.exp(-0.5)
        assert rep.components["grad_F"] == pytest.approx(target, rel=0.05)
        assert rep.components["horizontal_term"] == pytest.approx(target, rel=0.15)
        assert abs(rep.components["second_grad_F"]) < 0.05

    def test_injected_half_factor_fault_detected(self):
        prefix = constant_prefix(0.5, 1.0)
        rep = kolmogorov_residual(
            OU, prefix, product_functional(1.0, 1.0), EPS, 300, SeedSpec(22), FINE, n_outer=300
        )
        assert rep.passed
        fault = rep.residual + rep.components["diffusion_term"]  # drop the 1/2 factor
        assert abs(fault) > rep.tolerance

    @pytest.mark.parametrize(
        "f, eps",
        [(point_functional(0.25), EPS), (point_functional(0.5), None), (SQUARE_INTEGRAL, 100.0),
         (point_functional(1.0), 1e300)],
        ids=["mollified-probe-before-t", "probe-at-t", "wide-window", "huge-window"],
    )
    def test_a_check_that_reads_no_continuation_is_no_pass(self, f, eps):
        # f_eps reads no node after t = 0.5, so every term would be 0
        prefix = constant_prefix(0.5, 1.0)
        with pytest.raises(InsufficientSignalError):
            kolmogorov_residual(OU, prefix, f, eps, 16, SeedSpec(24), FINE, n_outer=2)

    def test_prefix_support_condition(self):
        bad = constant_prefix(0.5, 2.0)  # does not start at xi0 = 1
        with pytest.raises(InvalidArgumentError):
            kolmogorov_residual(OU, bad, point_functional(1.0), EPS, 16, SeedSpec(23), FINE, n_outer=2)


class TestMartingaleGap:
    @pytest.mark.parametrize(
        "f, times",
        [(point_functional(1.0), (0.5, 0.5)), (point_functional(0.25), (0.5, 0.75)),
         (SQUARE_INTEGRAL, (1.0, 1.0))],
        ids=["s=t", "probe-before-s", "whole-path-s=t=T"],
    )
    def test_a_gap_that_vanishes_identically_is_no_pass(self, f, times):
        with pytest.raises(InsufficientSignalError):
            martingale_gap(OU, f, EPS, times, 8, SeedSpec(25), FINE)

    def test_ou_point(self):
        rep = martingale_gap(OU, point_functional(1.0), EPS, (0.25, 0.75), 128, SeedSpec(26), FINE, n_inner=128)
        assert rep.passed

    def test_sine_product(self):
        rep = martingale_gap(
            SINE, product_functional(0.5, 1.0), EPS, (0.125, 0.875), 96, SeedSpec(27), FINE, n_inner=96
        )
        assert rep.passed

    def test_bad_times(self):
        with pytest.raises(InvalidArgumentError):
            martingale_gap(OU, point_functional(1.0), EPS, (0.75, 0.25), 8, SeedSpec(28), FINE)


class TestItoRmsStudy:
    STEPS = [16, 32, 64, 128]
    N = 4000

    def test_residual_is_qv_fluctuation_on_the_study_draws(self):
        # the draws of ito_rms_study, redrawn here: W(T)^2 - sum 2 W dW - T
        # equals sum dW^2 - T on every path, whose mean square is exactly
        # 2 T delta; 4 SE of that mean bound the study's RMS
        study = ito_rms_study(1.0, self.STEPS, self.N, SeedSpec(31))
        for si, n in enumerate(self.STEPS):
            dt = 1.0 / n
            dw = np.sqrt(dt) * SeedSpec(31).rng(fc._TAG_INNER, si, 0).standard_normal((self.N, n))
            w = np.cumsum(dw, axis=1)
            ito_sum = 2.0 * np.sum(w[:, :-1] * dw[:, 1:], axis=1)
            resid = w[:, -1] ** 2 - ito_sum - 1.0
            assert np.allclose(resid, np.sum(dw**2, axis=1) - 1.0, rtol=0.0, atol=1e-12)
            assert study["rms"][si] == pytest.approx(np.sqrt(np.mean(resid**2)), rel=1e-12)
            # Var[(sum dW^2 - T)^2] / (2 T delta)^2 = 2 + 12 / n
            se = np.sqrt((2.0 + 12.0 / n) / self.N)
            assert abs(study["rms"][si] ** 2 / (2.0 * dt) - 1.0) <= 4 * se

    def test_rms_contraction_rate(self):
        study = ito_rms_study(1.0, self.STEPS, self.N, SeedSpec(31))
        for ratio in study["ratios"]:
            assert 1.2 <= ratio <= 1.7


def ou_beta(rows, dt, theta=1.0):
    """beta[i] = sum_{m >= i} r_m (1 - theta dt)^(m - i) for each probe row r
    (one column per row; beta[N + 1] = 0): the sensitivity of E (M X)(tau)
    to the value u at node i of an OU(theta) Euler continuation on a
    uniform grid of step dt, which has mean u (1 - theta dt)^(m - i) at
    node m."""
    n = rows.shape[1]
    beta = np.zeros((n + 1, rows.shape[0]))
    for i in range(n - 1, -1, -1):
        beta[i] = rows[:, i] + (1.0 - theta * dt) * beta[i + 1]
    return beta


def ou_expected_diff(f, coarse, eps, rule, theta=1.0, factor=64, q=4):
    """Exact E LHS - E RHS of ``error_representation_sides`` for OU(theta, 1, 1).

    Every quantity is affine in the fine increments W: X and X~ (linear
    Euler chains), the drift gaps, and E[(M x)(t) | prefix, endpoint u] =
    P + beta u, where beta(i) = sum_{m >= i} r_m (1 - theta dt)^(m - i) for
    the probe row r.  The inner bump differences of a functional at most
    quadratic in u average to grad F(u) = Df(P + beta u)[beta] exactly.
    Evaluating on W = 0 and on each unit vector gives every affine map, and
    E[A B] = A(0) B(0) + dt sum_j dA_j dB_j.  ``rule`` is the estimator's
    one-step rule in expectation (every fine step, weight dt) or the former
    trapezoid on q nodes per coarse interval.
    """
    model = ou_model(theta, 1.0, 1.0)
    fine = refine_grid(coarse, factor)
    n_fine, dt = fine.n_intervals, fine.nodes[1] - fine.nodes[0]
    cidx = fine.indices_of_subgrid(coarse)
    dw = np.vstack([np.zeros(n_fine), np.eye(n_fine)])
    x_ref = euler_values_batch(model, fine, dw)
    y = euler_values_batch(model, coarse, dw.reshape(n_fine + 1, coarse.n_intervals, -1).sum(2))
    w = np.hstack([np.zeros((n_fine + 1, 1)), np.cumsum(dw, axis=1)])
    x_tilde = stochastic_interpolation_batch(model, coarse, fine, y, w)
    rows = fc._probe_rows(MollifierSpec(eps), fine, f.probe_times)
    beta = ou_beta(rows, dt, theta)

    def expect(a, b):
        return a[0] * b[0] + dt * np.dot(a[1:] - a[0], b[1:] - b[0])

    def expect_f(x):  # f at most quadratic: E f(c + V Z) = f(c) + dt/2 sum_j D2f[V_j, V_j]
        v = x @ rows.T
        c, ev = f.probe_eval(v[0]), f.probe_eval(v[1:])
        return c + 0.5 * dt * np.sum(ev + f.probe_eval(2 * v[0] - v[1:]) - 2 * c)

    def grad(i, u):  # grad F_i at endpoint u, per basis row
        mean = x_tilde[:, :i] @ rows[:, :i].T + u[:, None] * beta[i]
        return f.probe_d1(mean, np.broadcast_to(beta[i], mean.shape))

    lhs = expect_f(x_tilde) - expect_f(x_ref)
    rhs = 0.0
    for n in range(coarse.n_intervals):
        b_frozen = model.b(y[:, n])
        if rule == "one-step":
            for k in range(cidx[n], cidx[n + 1]):
                end, delta_b, _ = fc._one_step(model, x_tilde, k, b_frozen, 0.0, fine)
                rhs += dt * expect(grad(k + 1, end), delta_b)
        else:
            stride = factor // q
            for j in range(1, q + 1):
                idx = cidx[n] + j * stride
                weight = stride * dt * (0.5 if j == q else 1.0)
                rhs += weight * expect(grad(idx, x_tilde[:, idx]), b_frozen - model.b(x_tilde[:, idx]))
    return lhs - rhs


class TestErrorRepresentation:
    COARSE = make_uniform_grid(0.25, 2)
    EPS_FINE = 2 * 0.25 / 128

    def test_ou_identity(self):
        rep = error_representation_sides(
            OU, point_functional(0.25), self.EPS_FINE, self.COARSE, 128, 128, SeedSpec(32)
        )
        assert rep.passed
        assert abs(rep.lhs.value) > 4 * rep.lhs.std_error  # the bias itself is resolved

    @pytest.mark.parametrize(
        "f", [point_functional(0.25), product_functional(0.125, 0.25)], ids=["point", "product"]
    )
    def test_quadrature_rule_is_exact_for_ou(self, f):
        # the randomised one-step rule has E diff = 0 to rounding; the former
        # trapezoid over 4 nodes per interval missed the boundary layer of
        # grad F before the probe time by about 1e-3
        assert abs(ou_expected_diff(f, self.COARSE, self.EPS_FINE, "one-step")) <= 1e-12
        assert ou_expected_diff(f, self.COARSE, self.EPS_FINE, "trapezoid") < -5e-4

    def test_degenerate_coefficients_vanish(self):
        rep = error_representation_sides(
            OU, point_functional(0.25), self.EPS_FINE, self.COARSE, 64, 32, SeedSpec(33), freeze=False
        )
        assert rep.lhs.value == 0.0 and rep.rhs.value == 0.0 and rep.passed

    def test_sine_identity_with_diffusion_term(self):
        rep = error_representation_sides(
            SINE, point_functional(0.25), self.EPS_FINE, self.COARSE, 128, 128, SeedSpec(34)
        )
        assert rep.passed

    def test_rounding_floor_for_vanishing_sides(self):
        # both sides of the constant model are 0: diff is rounding noise
        # (1.0e-16) whose 4 SE (8.0e-17) alone would fail the check
        rep = error_representation_sides(
            constant_model(0.5, 1.0, 0.2), point_functional(0.25), None, self.COARSE, 8, 16,
            SeedSpec(19), fine_factor=8, quad_per_interval=2,
        )
        assert rep.rhs.value == 0.0 and rep.diff != 0.0
        assert abs(rep.diff) > 4 * rep.diff_std_error
        assert 0 < rep.rounding_floor < 1e-14
        assert rep.tolerance == 4 * rep.diff_std_error + rep.rounding_floor
        assert rep.passed

    def test_rounding_floor_excuses_only_rounding(self):
        est = NestedEstimate(0.0, 0.0, 0)
        assert ErrorRepresentationReport(est, est, 1e-16, 0.0, rounding_floor=4e-16).passed
        assert not ErrorRepresentationReport(est, est, 1e-9, 0.0, rounding_floor=4e-16).passed

    def test_instance_size_guard(self):
        big = make_uniform_grid(1.0, 2)
        with pytest.raises(InvalidArgumentError):
            error_representation_sides(OU, point_functional(1.0), 0.01, big, 8, 8, SeedSpec(35))
        many = make_uniform_grid(0.25, 8)
        with pytest.raises(InvalidArgumentError):
            error_representation_sides(OU, point_functional(0.25), 0.001, many, 8, 8, SeedSpec(36))

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            error_representation_sides(
                OU, point_functional(0.25), self.EPS_FINE, self.COARSE, 10_000, 10_000,
                SeedSpec(37), inner_cap=1_000_000,
            )


@pytest.mark.parametrize("bump", [0.0, -1e-2, np.nan, np.inf])
def test_every_nested_entry_point_checks_a_callers_bump(bump):
    prefix, f = constant_prefix(0.5, 1.0), point_functional(1.0)
    calls = [
        lambda: vertical_derivative(OU, prefix, f, EPS, 16, bump, SeedSpec(11), FINE),
        lambda: second_vertical_derivative(OU, prefix, f, EPS, 16, bump, SeedSpec(11), FINE),
        lambda: kolmogorov_residual(OU, prefix, f, EPS, 16, SeedSpec(11), FINE, n_outer=2, bump=bump),
        lambda: error_representation_sides(
            OU, point_functional(0.25), EPS, make_uniform_grid(0.25, 2), 2, 2, SeedSpec(11),
            fine_factor=8, quad_per_interval=2, bump=bump,
        ),
    ]
    for call in calls:
        with pytest.raises(InvalidArgumentError, match="bump"):
            call()


def test_non_finite_value_or_tolerance_fails():
    assert ResidualReport.make(0.5, 1.0, {}).passed
    for value, tol in ((1.0, np.inf), (np.nan, 1.0), (np.inf, np.inf)):
        assert not ResidualReport.make(value, tol, {}).passed
    est = NestedEstimate(0.0, 0.0, 0)
    assert ErrorRepresentationReport(est, est, 1.0, 1.0).passed
    assert not ErrorRepresentationReport(est, est, 1.0, np.inf).passed


class TestOuOracles:
    """Exact F_t, grad F, grad^2 F and D_t F for OU(1, 1, 1) with mollified
    point and product functionals.  The Euler continuation from u at node i
    has probe values (M X)(tau) = mean + beta(i) (u - x(t)) + N: ``mean``
    comes from the prefix and beta from the probe rows, and N is Gaussian
    with mean zero, independent of u, with covariance
    dt sum_{j >= i} beta(j+1) beta(j+1)^T.  So F_t is affine (point) or
    quadratic (product) in u, and central differences over common noise are
    exact on it up to rounding."""

    I_T = 64  # t = 0.5
    BUMP = 1e-2
    N_INNER = 2000

    def oracle(self, f):
        """The prefix up to node I_T, the probe rows and beta."""
        rows = fc._probe_rows(MollifierSpec(EPS), FINE, f.probe_times)
        dw = np.sqrt(FINE.mesh) * SeedSpec(60).rng().standard_normal((1, FINE.n_intervals))
        x = euler_values_batch(OU, FINE, dw)[0]
        i = self.I_T
        prefix = DiscretePath(TimeGrid(FINE.nodes[: i + 1]), x[: i + 1])
        return prefix, rows, ou_beta(rows, FINE.mesh)

    @staticmethod
    def moments(rows, beta, path):
        """Mean and noise covariance of the probe values of the continuation
        of ``path`` from its last node i."""
        i = path.size - 1
        mean = rows[:, :i] @ path[:i] + beta[i] * path[i]
        return mean, FINE.mesh * beta[i + 1 :].T @ beta[i + 1 :]

    @staticmethod
    def exact_F(mean, cov):
        """E f(mean + N) for point (one probe) or product (two)."""
        return mean[0] if mean.size == 1 else mean[0] * mean[1] + cov[0, 1]

    def estimates(self, f, seed):
        prefix, rows, beta = self.oracle(f)
        mean, cov = self.moments(rows, beta, prefix.values)
        args = (OU, prefix, f, EPS, self.N_INNER)
        return (
            (mean, beta[self.I_T], cov),
            estimate_F(*args, SeedSpec(seed), FINE),
            vertical_derivative(*args, self.BUMP, SeedSpec(seed + 1), FINE),
            second_vertical_derivative(*args, self.BUMP, SeedSpec(seed + 2), FINE),
        )

    def test_point_is_affine(self):
        # F = mean + beta (u - x(t)): grad F = beta for every sample, grad^2 F = 0
        (mean, beta, _), est, vd, second = self.estimates(point_functional(1.0), 61)
        assert beta[0] > 0.1
        assert abs(est.value - mean[0]) <= 4 * est.std_error
        # rounding of f_eps, about 1e-16, over 2h and h^2
        assert abs(vd.central.value - beta[0]) <= 1e-13
        assert abs(vd.pairing.value - beta[0]) <= 1e-14
        assert abs(second.value) <= 1e-11

    def test_product_is_quadratic(self):
        # F = m1 m2 + C12: grad F = beta1 m2 + beta2 m1, grad^2 F = 2 beta1 beta2;
        # the bump difference of each sample is its pairing up to rounding
        (mean, beta, cov), est, vd, second = self.estimates(product_functional(0.5, 1.0), 64)
        assert beta.min() > 0.1
        grad = beta[0] * mean[1] + beta[1] * mean[0]
        assert abs(est.value - self.exact_F(mean, cov)) <= 4 * est.std_error
        for part in (vd.central, vd.pairing):
            assert abs(part.value - grad) <= 4 * part.std_error
        assert abs(second.value - 2 * beta[0] * beta[1]) <= 1e-11
        assert second.std_error <= 1e-11
        # the same draws: the two first-derivative estimates agree to rounding
        assert abs(vd.central.value - vd.pairing.value) <= 1e-13

    def kolmogorov(self, f):
        prefix, _, beta = self.oracle(f)
        rep = kolmogorov_residual(
            OU, prefix, f, EPS, 200, SeedSpec(67), FINE, n_outer=4, bump=self.BUMP
        )
        return rep.components, beta[self.I_T]

    def test_kolmogorov_point_terms(self):
        # every bump difference of the affine F is beta up to rounding
        components, beta = self.kolmogorov(point_functional(1.0))
        assert abs(components["grad_F"] - beta[0]) <= 1e-13
        assert abs(components["second_grad_F"]) <= 1e-11

    def test_kolmogorov_product_curvature(self):
        components, beta = self.kolmogorov(product_functional(0.5, 1.0))
        assert abs(components["second_grad_F"] - 2 * beta[0] * beta[1]) <= 1e-11

    @pytest.mark.parametrize(
        "f", [point_functional(1.0), product_functional(0.5, 1.0)], ids=["point", "product"]
    )
    def test_horizontal_derivative(self, f):
        # the flat extension to node i + 1 has probe mean
        # rows[:, :i+1] @ ext + beta(i+1) x(t), and its noise covariance drops
        # dt beta(i+1) beta(i+1)^T; for point, D_t F = theta x(t) beta(i+1).
        # The prefix is lifted by 2 so that x(t) is far from 0 and the
        # estimate resolves D_t F.
        prefix, rows, beta = self.oracle(f)
        prefix = DiscretePath(prefix.grid, prefix.values + 2.0)
        x_t = prefix.values[-1]
        base = self.exact_F(*self.moments(rows, beta, prefix.values))
        ext = self.exact_F(*self.moments(rows, beta, np.append(prefix.values, x_t)))
        exact = (ext - base) / FINE.mesh
        if f.probe_times == (1.0,):
            assert exact == pytest.approx(x_t * beta[self.I_T + 1][0], rel=1e-10)
        # one step's noise over dt: 10 N_INNER rows bring the SE to 4% of D_t F
        est = horizontal_derivative(OU, prefix, f, EPS, 10 * self.N_INNER, None, SeedSpec(66), FINE)
        assert abs(exact) > 20 * est.std_error
        assert abs(est.value - exact) <= 4 * est.std_error


class TestTerminalTime:
    """At t = T the continuation has no steps: each estimator is f_eps of the
    prefix with its endpoint moved, with SE 0 and no inner samples."""

    BUMP = 1e-2
    CASES = [
        pytest.param(f, eps, id=f"{name}-{'mollified' if eps else 'raw'}")
        for name, f in (
            ("point", point_functional(1.0)),
            ("product", product_functional(0.5, 1.0)),
            ("integral-square", SQUARE_INTEGRAL),
        )
        for eps in (EPS, None)
    ]

    @staticmethod
    def path():
        dw = np.sqrt(FINE.mesh) * SeedSpec(70).rng().standard_normal((1, FINE.n_intervals))
        return DiscretePath(FINE, euler_values_batch(SINE, FINE, dw)[0])

    def run(self, f, eps):
        args = (SINE, self.path(), f, eps, 64)
        return (
            estimate_F(*args, SeedSpec(71), FINE),
            vertical_derivative(*args, self.BUMP, SeedSpec(72), FINE),
            second_vertical_derivative(*args, self.BUMP, SeedSpec(73), FINE),
        )

    @pytest.mark.parametrize("f, eps", CASES)
    def test_no_inner_samples(self, f, eps):
        est, vd, second = self.run(f, eps)
        for part in (est, vd.central, vd.pairing, second):
            assert part.std_error == 0.0 and part.inner_samples == 0

    @pytest.mark.parametrize("f, eps", CASES)
    def test_values_are_bump_differences_of_f_eps(self, f, eps):
        est, vd, second = self.run(f, eps)
        x = self.path().values
        rows = np.stack([x, x, x])
        rows[0, -1] += self.BUMP
        rows[2, -1] -= self.BUMP
        up, mid, down = fc._feps_batch(f, fc._spec(eps), FINE, rows)
        assert est.value == fc._feps_batch(f, fc._spec(eps), FINE, x[None])[0]
        # a one-row product may sum in another order than the three-row one:
        # a few ulps of the summed terms, over 2h and h^2
        ulps = 16 * FINE.nodes.size * np.finfo(np.float64).eps * (1.0 + np.abs(rows).max()) ** 2
        assert abs(vd.central.value - (up - down) / (2 * self.BUMP)) <= ulps / (2 * self.BUMP)
        assert abs(second.value - (up - 2 * mid + down) / self.BUMP**2) <= ulps / self.BUMP**2

    @pytest.mark.parametrize("f, eps", CASES)
    def test_pairing_is_df_along_the_endpoint_indicator(self, f, eps):
        _, vd, _ = self.run(f, eps)
        x = self.path().values
        indicator = np.zeros_like(x)
        indicator[-1] = 1.0
        want = fc._fd1_batch(f, fc._spec(eps), FINE, x[None], indicator[None])[0]
        assert vd.pairing.value == want

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("eps", [EPS, None])
    def test_non_finite_f_eps_raises(self, eps):
        # as at t < T; the square of 1e200 overflows
        prefix = constant_prefix(1.0, 1e200)
        f = product_functional(1.0, 1.0)
        for estimator in (estimate_F, vertical_derivative, second_vertical_derivative):
            extra = () if estimator is estimate_F else (self.BUMP,)
            with pytest.raises(NumericalOverflowError):
                estimator(SINE, prefix, f, eps, 16, *extra, SeedSpec(74), FINE)
