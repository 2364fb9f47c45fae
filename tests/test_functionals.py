import numpy as np
import pytest

import weakpathlab.functional_calculus as fc
from weakpathlab.core_paths import PathMode, TimeGrid, interpolate_values, make_uniform_grid
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
from weakpathlab.mollifier import MollifierSpec
from weakpathlab.randomness import SeedSpec, sample_brownian
from weakpathlab.weak_error import FineGridReference, RateExperiment, coupled_bias

GRID = make_uniform_grid(1.0, 100)
NODES = GRID.nodes


def brownian_rows(first, count=1):
    """``count`` Brownian paths on GRID as rows of node values."""
    return np.stack([sample_brownian(GRID, SeedSpec(123, first + i)).values for i in range(count)])


def square_integral():
    return integral_functional(lambda u: u**2, lambda u: 2.0 * u, lambda u: 2.0 + 0.0 * u)


ALL_FUNCTIONALS = [
    product_functional(0.31, 0.87),
    point_functional(0.7),
    square_integral(),
    smooth_max_functional(2.0),
]

# f(x), written out for rows x of node values on GRID
REFERENCES = {
    "product(0.31,0.87)": lambda x: np.array([np.interp(0.31, NODES, r) * np.interp(0.87, NODES, r)
                                              for r in x]),
    "point(0.7)": lambda x: np.array([np.interp(0.7, NODES, r) for r in x]),
    "integral": lambda x: np.trapezoid(x**2, NODES, axis=-1),
    # the unshifted log-mean-exp, finite at this beta (T = 1)
    "smooth_max(2.0)": lambda x: np.log(np.trapezoid(np.exp(2.0 * x), NODES, axis=-1)) / 2.0,
}

# p with |f(x)| <= C (1 + |x|_sup^p): the polynomial growth the weak-error
# formula asks of f and its derivatives
GROWTH_EXPONENTS = {"product(0.31,0.87)": 2.0, "point(0.7)": 1.0, "integral": 2.0,
                    "smooth_max(2.0)": 1.0}


def hook(f, kind, *rows):
    """f's ``kind`` hook ("eval", "d1" or "d2") on rows of node values on
    GRID; probe hooks get the rows at their probe times."""
    if f.probe_times is not None:
        probes = np.asarray(f.probe_times)
        args = [interpolate_values(NODES, r, probes, PathMode.LINEAR) for r in rows]
        return getattr(f, f"probe_{kind}")(*args)
    return getattr(f, f"batch_{kind}")(*rows, GRID, PathMode.LINEAR)


class TestProductFunctional:
    def test_zero_path(self):
        assert hook(product_functional(0.2, 0.9), "eval", np.zeros((1, 101)))[0] == 0.0

    def test_euler_homogeneity(self):
        f = product_functional(0.25, 0.75)
        x = brownian_rows(0)
        assert hook(f, "d1", x, x)[0] == pytest.approx(2 * hook(f, "eval", x)[0], rel=1e-12)

    def test_d2_is_constant(self):
        f = product_functional(0.25, 0.75)
        h1, h2 = brownian_rows(2), brownian_rows(3)
        assert hook(f, "d2", brownian_rows(1), h1, h2) == hook(f, "d2", brownian_rows(4), h1, h2)

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidArgumentError):
            product_functional(-0.1, 0.5)


class TestPointFunctional:
    def test_ramp_value(self):
        f = point_functional(0.7)
        assert hook(f, "eval", NODES[None])[0] == pytest.approx(0.7, rel=1e-14)

    def test_d1_independent_of_base(self):
        f = point_functional(0.7)
        h = brownian_rows(4)
        assert hook(f, "d1", brownian_rows(5), h) == hook(f, "d1", brownian_rows(6), h)

    def test_d2_vanishes(self):
        f = point_functional(0.7)
        d2 = hook(f, "d2", brownian_rows(7, 3), brownian_rows(10, 3), brownian_rows(13, 3))
        assert np.array_equal(d2, np.zeros(3))


class TestIntegralFunctional:
    def test_identity_on_constant(self):
        f = integral_functional(lambda u: u, lambda u: 1.0 + 0.0 * u, lambda u: 0.0 * u)
        assert hook(f, "eval", np.full((1, 101), 2.5))[0] == pytest.approx(2.5, rel=1e-12)

    def test_square_of_ramp(self):
        # integral of t^2 dt = 1/3, trapezoid error O(mesh^2)
        assert hook(square_integral(), "eval", NODES[None])[0] == pytest.approx(1 / 3, abs=2e-4)

    def test_d1_against_quadrature(self):
        # d/du integral u^2 in direction 1 along x=t: integral 2t dt = 1
        d1 = hook(square_integral(), "d1", NODES[None], np.ones((1, 101)))
        assert d1[0] == pytest.approx(1.0, abs=2e-4)

    def test_d2_reads_g_second_derivative(self):
        # g'' = 2: D^2 f (x)[h, h] = 2 int h^2 dt whatever x is
        h = brownian_rows(90)
        d2 = hook(square_integral(), "d2", brownian_rows(91), h, h)
        assert d2[0] == pytest.approx(2.0 * np.trapezoid(h[0] ** 2, NODES), rel=1e-12)


class TestSmoothMax:
    def test_constant_path_exact(self):
        f = smooth_max_functional(3.0)
        assert hook(f, "eval", np.full((1, 101), -1.3))[0] == pytest.approx(-1.3, rel=1e-12)

    def test_bounded_by_sup_norm(self):
        x = brownian_rows(0, 10)
        assert np.all(hook(smooth_max_functional(2.0), "eval", x) <= np.abs(x).max(axis=1) + 1e-12)

    def test_monotone_in_beta_to_max(self):
        vals = [hook(smooth_max_functional(b), "eval", NODES[None])[0] for b in (1.0, 10.0, 100.0)]
        assert vals[0] < vals[1] < vals[2] < 1.0

    def test_shifted_form_stays_finite_for_large_beta_times_sup(self):
        # beta * sup|x| = 800 lies beyond the exp range unshifted; the
        # shifted log-mean-exp and weights are exact here
        f = smooth_max_functional(100.0)
        x = np.full((1, 101), 8.0)
        assert hook(f, "eval", x)[0] == 8.0
        assert hook(f, "d1", x, np.ones((1, 101)))[0] == 1.0
        # OU paths with beta * sup|x| > 700 in some samples: the whole rung
        # is estimated, nothing excluded
        exp = RateExperiment(
            model=ou_model(1.0, 1.0, 1.0), functional=smooth_max_functional(250.0), horizon=1.0,
            deltas=(0.25, 0.125, 0.0625), n_base=20000, reference=FineGridReference(4),
            seed=SeedSpec(1),
        )
        point = coupled_bias(exp, 0)
        assert np.isfinite(point.bias) and point.excluded == 0 and point.n_samples == 20000

    @pytest.mark.parametrize("beta", [0.0, -1.0, np.inf, np.nan])
    def test_invalid_beta(self, beta):
        # beta = inf would make every value NaN
        with pytest.raises(InvalidArgumentError):
            smooth_max_functional(beta)


def test_functional_needs_exactly_one_complete_hook_set():
    p, b = point_functional(0.5), square_integral()
    probe = dict(probe_times=p.probe_times, probe_eval=p.probe_eval, probe_d1=p.probe_d1,
                 probe_d2=p.probe_d2)
    batch = dict(batch_eval=b.batch_eval, batch_d1=b.batch_d1, batch_d2=b.batch_d2)
    PathFunctional(name="probe", **probe)
    PathFunctional(name="batch", **batch)
    for hooks in (
        {},
        {**probe, "probe_times": None},  # probe hooks without their times
        {**probe, "probe_d2": None},  # no second derivative
        {**batch, "batch_d2": None},
        {**probe, "batch_eval": b.batch_eval},  # a mix
        {**batch, "probe_times": p.probe_times},
    ):
        with pytest.raises(InvalidArgumentError):
            PathFunctional(name="incomplete", **hooks)


@pytest.mark.parametrize("f", ALL_FUNCTIONALS, ids=lambda f: f.name)
def test_eval_matches_written_out_reference(f):
    x = brownian_rows(60, 5)
    assert np.allclose(hook(f, "eval", x), REFERENCES[f.name](x), rtol=1e-12, atol=1e-14)


class TestDerivativeAudit:
    @pytest.mark.parametrize("f", ALL_FUNCTIONALS, ids=lambda f: f.name)
    def test_d1_matches_central_difference(self, f):
        x, h = brownian_rows(10, 25), brownian_rows(200, 25)
        tau = 1e-4 * (1.0 + np.abs(h).max(axis=1, keepdims=True))
        fd = (hook(f, "eval", x + tau * h) - hook(f, "eval", x - tau * h)) / (2 * tau[:, 0])
        claimed = hook(f, "d1", x, h)
        assert np.all(np.abs(claimed - fd) <= 1e-4 * (1.0 + np.abs(claimed)))

    @pytest.mark.parametrize("f", ALL_FUNCTIONALS, ids=lambda f: f.name)
    def test_d2_matches_central_difference_of_d1(self, f):
        x, h1, h2 = brownian_rows(20, 25), brownian_rows(300, 25), brownian_rows(400, 25)
        tau = 1e-4 * (1.0 + np.abs(h2).max(axis=1, keepdims=True))
        fd = (hook(f, "d1", x + tau * h2, h1) - hook(f, "d1", x - tau * h2, h1)) / (2 * tau[:, 0])
        claimed = hook(f, "d2", x, h1, h2)
        assert np.all(np.abs(claimed - fd) <= 1e-4 * (1.0 + np.abs(claimed)) + 1e-5)

    @pytest.mark.parametrize("f", ALL_FUNCTIONALS, ids=lambda f: f.name)
    def test_d2_symmetric(self, f):
        x, h1, h2 = brownian_rows(30), brownian_rows(31), brownian_rows(32)
        assert hook(f, "d2", x, h1, h2)[0] == pytest.approx(
            hook(f, "d2", x, h2, h1)[0], rel=1e-12, abs=1e-15
        )


class TestGrowthAudit:
    @pytest.mark.parametrize("f", ALL_FUNCTIONALS, ids=lambda f: f.name)
    def test_polynomial_growth(self, f):
        x = brownian_rows(40)
        base = 1.0 + abs(hook(f, "eval", x)[0])
        for lam in (1.0, 2.0, 4.0, 8.0):
            val = abs(hook(f, "eval", lam * x)[0])
            assert val <= 4.0 * base * lam ** GROWTH_EXPONENTS[f.name]

    @pytest.mark.parametrize("f", ALL_FUNCTIONALS, ids=lambda f: f.name)
    def test_mollified_composition_same_growth(self, f):
        # f o M has the same growth constant: M is a sup-norm contraction
        p = GROWTH_EXPONENTS[f.name]
        x = brownian_rows(50, 10)
        mollified = np.abs(fc._feps_batch(f, MollifierSpec(0.05, 64), GRID, x))
        sup_p = np.abs(x).max(axis=1) ** p
        c = 4.0 * (1.0 + np.abs(hook(f, "eval", x))) / (1.0 + sup_p)
        assert np.all(mollified <= c * (1.0 + sup_p))


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
    def test_one_row_batch_equals_its_row_bitwise(self, f, grid):
        v, h1, h2 = kernel_batch(grid), kernel_batch(grid, seed=1), kernel_batch(grid, seed=2)
        mode = PathMode.LINEAR
        batch = (f.batch_eval(v, grid, mode), f.batch_d1(v, h1, grid, mode),
                 f.batch_d2(v, h1, h2, grid, mode))
        for i in range(v.shape[0]):
            row = slice(i, i + 1)
            one_row = (f.batch_eval(v[row], grid, mode), f.batch_d1(v[row], h1[row], grid, mode),
                       f.batch_d2(v[row], h1[row], h2[row], grid, mode))
            assert all(a[0] == b[i] for a, b in zip(one_row, batch))
