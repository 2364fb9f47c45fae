import numpy as np
import pytest

import weakpathlab.functional_calculus as fc
import weakpathlab.mollifier as mol

from weakpathlab.core_paths import DiscretePath, PathMode, TimeGrid, make_uniform_grid, sup_norm
from weakpathlab.errors import InvalidArgumentError, ResolutionTooCoarseError
from weakpathlab.mollifier import (
    BandRows,
    MollifierSpec,
    band_tiles,
    kernel_weights,
    mollify,
    mollify_operator,
)
from weakpathlab.randomness import SeedSpec, sample_brownian

GRID = make_uniform_grid(1.0, 200)
SPEC = MollifierSpec(0.1, 64)


class TestKernelWeights:
    def test_sum_exactly_one(self):
        w = kernel_weights(SPEC, GRID.mesh)
        assert np.isfinite(w).all()
        assert abs(w.sum() - 1.0) == 0.0

    def test_nonnegative(self):
        assert np.all(kernel_weights(SPEC, GRID.mesh) >= 0.0)

    def test_symmetric_about_center(self):
        w = kernel_weights(MollifierSpec(0.1, 63), GRID.mesh)
        assert np.allclose(w, w[::-1], atol=1e-15)

    def test_resolution_guard(self):
        with pytest.raises(ResolutionTooCoarseError):
            kernel_weights(MollifierSpec(0.005), GRID.mesh)

    def test_invalid_spec(self):
        with pytest.raises(InvalidArgumentError):
            MollifierSpec(0.0)
        with pytest.raises(InvalidArgumentError):
            MollifierSpec(0.1, kernel_samples=1)
        with pytest.raises(InvalidArgumentError):
            kernel_weights(SPEC, 0.0)


class TestMollify:
    def test_constant_preserved(self):
        p = DiscretePath(GRID, np.full(201, 3.7))
        assert np.abs(mollify(SPEC, p).values - 3.7).max() < 1e-13

    def test_ramp_shifts_by_half_window(self):
        # analytic convolution of t with a kernel of mean eps/2
        p = DiscretePath(GRID, GRID.nodes.copy())
        out = mollify(SPEC, p).values
        inside = GRID.nodes >= SPEC.epsilon
        assert np.abs(out[inside] - (GRID.nodes[inside] - SPEC.epsilon / 2)).max() < 1e-6

    def test_contraction(self):
        seed = SeedSpec(17)
        for i in range(200):
            p = sample_brownian(GRID, seed.with_stream(i)).path
            assert sup_norm(mollify(SPEC, p)) <= sup_norm(p)

    def test_linearity(self):
        seed = SeedSpec(18)
        for i in range(20):
            p = sample_brownian(GRID, seed.with_stream(i)).path
            q = sample_brownian(GRID, seed.with_stream(1000 + i)).path
            combo = DiscretePath(GRID, 2.0 * p.values - 3.0 * q.values)
            direct = mollify(SPEC, combo).values
            assembled = 2.0 * mollify(SPEC, p).values - 3.0 * mollify(SPEC, q).values
            assert np.abs(direct - assembled).max() < 1e-10

    def test_non_anticipative_exact(self):
        # editing the path strictly after t never changes values at <= t
        p = sample_brownian(GRID, SeedSpec(19)).path
        cut = 120
        edited = p.values.copy()
        edited[cut + 1 :] -= 11.0
        out_a = mollify(SPEC, p).values
        out_b = mollify(SPEC, DiscretePath(GRID, edited)).values
        assert np.array_equal(out_a[: cut + 1], out_b[: cut + 1])

    def test_operator_lower_triangular(self):
        a = mollify_operator(SPEC, GRID, PathMode.LINEAR)
        assert np.all(np.triu(a, 1) == 0.0)

    def test_lipschitz_convergence(self):
        # sup |M x - x| <= L eps for Lipschitz x; exactly eps/2 on [eps, T] for x = t
        p = DiscretePath(GRID, GRID.nodes.copy())
        for eps in (0.2, 0.1, 0.05):
            out = mollify(MollifierSpec(eps, 64), p).values
            assert np.abs(out - GRID.nodes).max() <= eps + 1e-12
            inside = GRID.nodes >= eps
            assert np.abs(out[inside] - GRID.nodes[inside]).max() == pytest.approx(
                eps / 2, rel=1e-6
            )

    def test_brownian_convergence_as_eps_shrinks(self):
        p = sample_brownian(GRID, SeedSpec(20)).path
        errs = []
        for eps in (0.4, 0.1, 0.025):
            errs.append(np.abs(mollify(MollifierSpec(eps, 64), p).values - p.values).max())
        assert errs[0] > errs[1] > errs[2]

    def test_mesh_guard_on_mollify(self):
        coarse = make_uniform_grid(1.0, 4)
        p = DiscretePath(coarse, np.zeros(5))
        with pytest.raises(ResolutionTooCoarseError):
            mollify(MollifierSpec(0.3), p)


def band_product(spec, grid, x):
    return BandRows(x, band_tiles(spec, grid)) @ mollify_operator(spec, grid, PathMode.LINEAR).T


def step_major(x):
    """``x`` with the layout ``euler_scan`` returns: the transpose of a
    C-contiguous (n, m) array."""
    return np.ascontiguousarray(x.T).T


def contiguous_tiles_product(x, a):
    """The plain band-tile product: near-equal row tiles of A, each at least
    max(32, band / 2) rows long, reading the columns from the leftmost
    nonzero of its first row, column 0 included."""
    n = a.shape[0]
    first = np.argmax(a != 0, axis=1)
    band = int((np.arange(n) - first).max()) + 1
    count = max(1, n // max(32, band // 2))
    edges = [i * n // count for i in range(count + 1)]
    out = np.empty((x.shape[0], n))
    for j0, j1 in zip(edges[:-1], edges[1:]):
        c0 = first[j0]
        np.matmul(x[:, c0:j1], a.T[c0:j1, j0:j1], out=out[:, j0:j1])
    return out


class TestBandTiles:
    """Rows multiplied by the operator's tile plan against the dense
    product.  Both sum the same nonzero terms in possibly different orders,
    so they differ by at most 2 n u (|x| @ |A.T|) per entry."""

    @staticmethod
    def paths(seed, rows, nodes):
        rng = np.random.default_rng(seed)
        return np.cumsum(rng.standard_normal((rows, nodes)), axis=1) * 0.03

    @staticmethod
    def assert_within_rounding(got, x, a):
        u = np.finfo(np.float64).eps / 2
        tol = 2 * a.shape[0] * u * (np.abs(x) @ np.abs(a.T))
        assert np.all(np.abs(got - x @ a.T) <= tol)

    @staticmethod
    def assert_plan_covers_every_nonzero_once(a, plan):
        count = np.zeros(a.shape, dtype=int)
        written = np.zeros(a.shape[0], dtype=int)
        for rows, cols in plan.tiles:
            assert rows.step == cols.step == plan.step
            count[rows, cols] += 1
            written[rows] += 1
        count[: plan.column0.size, 0] += 1
        assert np.all(count[a != 0] == 1)
        assert np.all(written == 1)  # every output row comes from one tile
        if plan.step > 1:
            assert np.array_equal(plan.column0, a[: plan.column0.size, 0])
            assert not a[plan.column0.size :, 0].any()
            for (rows, cols), block in zip(plan.tiles, plan.blocks):
                assert block.flags.c_contiguous and np.array_equal(block, a[rows, cols].T)

    def check(self, spec, grid, rows, seed):
        a, plan = mollify_operator(spec, grid, PathMode.LINEAR), band_tiles(spec, grid)
        self.assert_plan_covers_every_nonzero_once(a, plan)
        x = self.paths(seed, rows, grid.nodes.size)
        got = band_product(spec, grid, x)
        self.assert_within_rounding(got, x, a)
        # step-major rows give the same bits; class tiles return step-major rows
        assert np.array_equal(band_product(spec, grid, step_major(x)), got)
        assert (got.T if plan.step > 1 else got).flags.c_contiguous
        return plan

    @pytest.mark.parametrize(
        "nodes, eps, rows, step",
        [(129, 2.0 / 128, 200, 1), (513, 0.25, 64, 2), (1025, 0.25, 32, 4), (2049, 0.25, 16, 8)],
    )
    def test_matches_dense_to_rounding(self, nodes, eps, rows, step):
        # eps N / kernel_samples = 0.25 N / 64 puts every kernel sample on a
        # node at N = 512, 1024 and 2048: g = 2, 4 and 8
        spec, grid = MollifierSpec(eps), make_uniform_grid(1.0, nodes - 1)
        plan = self.check(spec, grid, rows, nodes)
        assert plan.step == step and len(plan.tiles) > 1

    def test_non_uniform_grid(self):
        rng = np.random.default_rng(61)
        nodes = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 599)), [1.0]])
        grid = TimeGrid(nodes)
        plan = self.check(MollifierSpec(4 * grid.mesh), grid, 50, 62)
        assert plan.step == 1 and len(plan.tiles) > 1

    @pytest.mark.parametrize("nodes, eps", [(129, 2.0 / 128), (129, 0.25), (201, 0.1)])
    def test_step_one_is_the_contiguous_band_tiles(self, nodes, eps):
        spec, grid = MollifierSpec(eps), make_uniform_grid(1.0, nodes - 1)
        a = mollify_operator(spec, grid, PathMode.LINEAR)
        assert band_tiles(spec, grid).step == 1
        x = self.paths(66, 300, nodes)
        assert np.array_equal(band_product(spec, grid, x), contiguous_tiles_product(x, a))

    def test_one_tile_is_the_dense_product(self):
        spec, grid = MollifierSpec(0.25), make_uniform_grid(1.0, 32)
        plan = band_tiles(spec, grid)
        assert plan.step == 1 and plan.tiles == ((slice(0, 33, 1), slice(0, 33, 1)),)
        x = self.paths(64, 1000, 33)
        a = mollify_operator(spec, grid, PathMode.LINEAR)
        assert np.array_equal(band_product(spec, grid, x), x @ a.T)

    @pytest.mark.parametrize(
        "nodes, eps, step, n_tiles",
        [(33, 0.25, 1, 1), (129, 2.0 / 128, 1, 4), (513, 0.25, 2, None), (1025, 0.25, 4, None)],
    )
    @pytest.mark.parametrize("rows", [1, 3, 16, 300])
    def test_step_major_rows_into_a_held_buffer(self, nodes, eps, step, n_tiles, rows):
        # the nested estimators hand BandRows step-major rows and a held
        # buffer; neither may move a bit of the C-ordered product
        spec, grid = MollifierSpec(eps), make_uniform_grid(1.0, nodes - 1)
        plan = band_tiles(spec, grid)
        assert plan.step == step and len(plan.tiles) == (n_tiles or len(plan.tiles))
        at = mollify_operator(spec, grid, PathMode.LINEAR).T
        x = self.paths(67, rows, nodes)
        want = BandRows(x, plan) @ at
        buf = np.full(rows * nodes, np.nan).reshape(nodes, rows)
        for values in (x, step_major(x)):
            assert np.array_equal(BandRows(values, plan) @ at, want)
            held = BandRows(values, plan, buf) @ at
            assert np.array_equal(held, want) and np.shares_memory(held, buf)
            assert (held.T if step > 1 else held).flags.c_contiguous
            buf[...] = np.nan


class TestCaches:
    """Both caches are LRU caches of CACHE_CAPACITY entries."""

    @staticmethod
    def spec(i):
        return MollifierSpec(0.1 * (1.0 + 1e-9 * i))

    def test_operator_cache_stays_within_capacity(self):
        for i in range(mol.CACHE_CAPACITY + 3):
            mollify_operator(self.spec(i), GRID, PathMode.LINEAR)
            assert mol._build.cache_info().currsize <= mol.CACHE_CAPACITY

    def test_probe_row_cache_stays_within_capacity(self):
        for i in range(mol.CACHE_CAPACITY + 3):
            fc._probe_rows(SPEC, GRID, (0.5 + 0.01 * i,))
            assert fc._build_probe_rows.cache_info().currsize <= mol.CACHE_CAPACITY

    def test_evicted_operator_rebuilds_bit_for_bit(self):
        first = mollify_operator(self.spec(100), GRID, PathMode.LINEAR)
        tiles = band_tiles(self.spec(100), GRID)
        for i in range(101, 101 + mol.CACHE_CAPACITY):
            mollify_operator(self.spec(i), GRID, PathMode.LINEAR)
        again = mollify_operator(self.spec(100), GRID, PathMode.LINEAR)
        assert again is not first
        assert np.array_equal(again, first)
        rebuilt = band_tiles(self.spec(100), GRID)
        assert (rebuilt.step, rebuilt.tiles) == (tiles.step, tiles.tiles)

    def test_recent_use_keeps_an_operator(self):
        kept = mollify_operator(self.spec(200), GRID, PathMode.LINEAR)
        for i in range(201, 201 + 2 * mol.CACHE_CAPACITY):
            mollify_operator(self.spec(200), GRID, PathMode.LINEAR)
            mollify_operator(self.spec(i), GRID, PathMode.LINEAR)
        assert mollify_operator(self.spec(200), GRID, PathMode.LINEAR) is kept


def audit_loop(spec, grid, seed, n_paths):
    """The four audit values, one ``mollify`` call per path."""
    contraction, linearity, scale = True, 0.0, 0.0
    for i in range(n_paths):
        p = sample_brownian(grid, seed.with_stream(i)).path
        mp = mollify(spec, p)
        contraction &= sup_norm(mp) <= sup_norm(p)
        if i < 32:
            q = sample_brownian(grid, seed.with_stream(n_paths + i)).path
            combo = DiscretePath(grid, 2.0 * p.values - 3.0 * q.values)
            parts = 2.0 * mp.values - 3.0 * mollify(spec, q).values
            linearity = max(linearity, float(np.abs(mollify(spec, combo).values - parts).max()))
            scale = max(scale, 2.0 * sup_norm(p) + 3.0 * sup_norm(q))
    w = sample_brownian(grid, seed.with_stream(2 * n_paths)).path
    cut = grid.n_intervals // 2
    edited = DiscretePath(grid, w.values + 7.0 * (np.arange(grid.nodes.size) > cut))
    non_anticipative = np.array_equal(
        mollify(spec, w).values[: cut + 1], mollify(spec, edited).values[: cut + 1]
    )
    ramp = mollify(spec, DiscretePath(grid, grid.nodes.copy())).values
    inside = grid.nodes >= spec.epsilon
    ramp_err = float(np.abs(ramp[inside] - (grid.nodes[inside] - spec.epsilon / 2)).max())
    return contraction, linearity, non_anticipative, ramp_err, scale


class TestAudit:
    @pytest.mark.parametrize("n_paths", [5, 40])
    def test_matches_the_per_path_loop(self, n_paths):
        grid = make_uniform_grid(1.0, 64)
        spec, seed = MollifierSpec(16 * grid.mesh, 64), SeedSpec(31)
        report = mol.audit(spec, grid, seed, n_paths)
        contraction, linearity, non_anticipative, ramp, scale = audit_loop(spec, grid, seed, n_paths)
        assert report.contraction is contraction is True
        assert report.non_anticipative is non_anticipative is True
        assert report.pairs == min(32, n_paths)
        # one rounding of a convex combination of at most n values each side
        rounding = grid.nodes.size * np.finfo(float).eps
        assert abs(report.linearity - linearity) <= 2 * rounding * scale
        assert abs(report.ramp - ramp) <= 2 * rounding
        assert 0.0 < report.linearity <= 1e-10 and report.ramp <= 1e-6

    def test_needs_a_path(self):
        with pytest.raises(InvalidArgumentError):
            mol.audit(SPEC, GRID, SeedSpec(1), 0)
