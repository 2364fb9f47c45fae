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
        p = DiscretePath(GRID, np.full(201, 3.7), PathMode.LINEAR)
        assert np.abs(mollify(SPEC, p).values - 3.7).max() < 1e-13

    def test_ramp_shifts_by_half_window(self):
        # analytic convolution of t with a kernel of mean eps/2
        p = DiscretePath(GRID, GRID.nodes.copy(), PathMode.LINEAR)
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
            combo = DiscretePath(GRID, 2.0 * p.values - 3.0 * q.values, PathMode.LINEAR)
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
        out_b = mollify(SPEC, DiscretePath(GRID, edited, PathMode.LINEAR)).values
        assert np.array_equal(out_a[: cut + 1], out_b[: cut + 1])

    def test_operator_lower_triangular(self):
        a = mollify_operator(SPEC, GRID, PathMode.LINEAR)
        assert np.all(np.triu(a, 1) == 0.0)

    def test_lipschitz_convergence(self):
        # sup |M x - x| <= L eps for Lipschitz x; exactly eps/2 on [eps, T] for x = t
        p = DiscretePath(GRID, GRID.nodes.copy(), PathMode.LINEAR)
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

    def test_cadlag_input_smoothed(self):
        values = np.where(GRID.nodes < 0.5, 0.0, 1.0)
        p = DiscretePath(GRID, values, PathMode.CADLAG_STEP)
        out = mollify(SPEC, p)
        assert out.mode is PathMode.LINEAR
        # backward window: the smoothed jump trails the raw jump
        assert out(0.5) <= 0.5 + 1e-12
        assert out(0.5 + SPEC.epsilon) == pytest.approx(1.0, abs=1e-12)

    def test_mesh_guard_on_mollify(self):
        coarse = make_uniform_grid(1.0, 4)
        p = DiscretePath(coarse, np.zeros(5), PathMode.LINEAR)
        with pytest.raises(ResolutionTooCoarseError):
            mollify(MollifierSpec(0.3), p)


def band_product(spec, grid, mode, x):
    return BandRows(x, band_tiles(spec, grid, mode)) @ mollify_operator(spec, grid, mode).T


class TestBandTiles:
    """Rows multiplied by the operator's band tiles against the dense
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
    def assert_tiles_cover_the_band(a, tiles):
        assert tiles[0][0] == 0 and tiles[-1][1] == a.shape[0]
        assert all(prev[1] == nxt[0] for prev, nxt in zip(tiles, tiles[1:]))
        assert all(not a[j0:j1, :c0].any() for j0, j1, c0 in tiles)

    @pytest.mark.parametrize(
        "nodes, eps, rows", [(129, 2.0 / 128, 200), (513, 0.25, 64), (1025, 0.25, 32), (2049, 0.25, 16)]
    )
    def test_matches_dense_to_rounding(self, nodes, eps, rows):
        spec, grid = MollifierSpec(eps), make_uniform_grid(1.0, nodes - 1)
        a, tiles = mollify_operator(spec, grid, PathMode.LINEAR), band_tiles(spec, grid, PathMode.LINEAR)
        assert len(tiles) > 1
        self.assert_tiles_cover_the_band(a, tiles)
        x = self.paths(nodes, rows, nodes)
        self.assert_within_rounding(band_product(spec, grid, PathMode.LINEAR, x), x, a)

    def test_non_uniform_grid(self):
        rng = np.random.default_rng(61)
        nodes = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 599)), [1.0]])
        grid = TimeGrid(nodes)
        spec = MollifierSpec(4 * grid.mesh)
        a, tiles = mollify_operator(spec, grid, PathMode.LINEAR), band_tiles(spec, grid, PathMode.LINEAR)
        assert len(tiles) > 1
        self.assert_tiles_cover_the_band(a, tiles)
        x = self.paths(62, 50, nodes.size)
        self.assert_within_rounding(band_product(spec, grid, PathMode.LINEAR, x), x, a)

    def test_cadlag_step_mode(self):
        spec, grid = MollifierSpec(0.25), make_uniform_grid(1.0, 512)
        a = mollify_operator(spec, grid, PathMode.CADLAG_STEP)
        tiles = band_tiles(spec, grid, PathMode.CADLAG_STEP)
        self.assert_tiles_cover_the_band(a, tiles)
        x = self.paths(63, 50, 513)
        self.assert_within_rounding(band_product(spec, grid, PathMode.CADLAG_STEP, x), x, a)

    def test_one_tile_is_the_dense_product(self):
        spec, grid = MollifierSpec(0.25), make_uniform_grid(1.0, 32)
        assert band_tiles(spec, grid, PathMode.LINEAR) == ((0, 33, 0),)
        x = self.paths(64, 1000, 33)
        a = mollify_operator(spec, grid, PathMode.LINEAR)
        assert np.array_equal(band_product(spec, grid, PathMode.LINEAR, x), x @ a.T)


class TestCaches:
    """Both caches are LRU caches of CACHE_CAPACITY entries."""

    @staticmethod
    def spec(i):
        return MollifierSpec(0.1 * (1.0 + 1e-9 * i))

    def test_operator_cache_stays_within_capacity(self):
        for i in range(mol.CACHE_CAPACITY + 3):
            mollify_operator(self.spec(i), GRID, PathMode.LINEAR)
            assert len(mol._OPERATOR_CACHE) <= mol.CACHE_CAPACITY

    def test_probe_row_cache_stays_within_capacity(self):
        for i in range(mol.CACHE_CAPACITY + 3):
            fc._probe_rows(SPEC, GRID, PathMode.LINEAR, (0.5 + 0.01 * i,))
            assert len(fc._PROBE_ROW_CACHE) <= mol.CACHE_CAPACITY

    def test_evicted_operator_rebuilds_bit_for_bit(self):
        first = mollify_operator(self.spec(100), GRID, PathMode.LINEAR)
        tiles = band_tiles(self.spec(100), GRID, PathMode.LINEAR)
        for i in range(101, 101 + mol.CACHE_CAPACITY):
            mollify_operator(self.spec(i), GRID, PathMode.LINEAR)
        again = mollify_operator(self.spec(100), GRID, PathMode.LINEAR)
        assert again is not first
        assert np.array_equal(again, first)
        assert band_tiles(self.spec(100), GRID, PathMode.LINEAR) == tiles

    def test_recent_use_keeps_an_operator(self):
        kept = mollify_operator(self.spec(200), GRID, PathMode.LINEAR)
        for i in range(201, 201 + 2 * mol.CACHE_CAPACITY):
            mollify_operator(self.spec(200), GRID, PathMode.LINEAR)
            mollify_operator(self.spec(i), GRID, PathMode.LINEAR)
        assert mollify_operator(self.spec(200), GRID, PathMode.LINEAR) is kept
