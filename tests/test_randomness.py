import numpy as np
import pytest

from weakpathlab.core_paths import make_uniform_grid, refine_grid
from weakpathlab.errors import InvalidArgumentError
from weakpathlab.randomness import (
    SeedSpec,
    haar_coefficients,
    sample_brownian,
    schauder_reconstruct,
)


class TestSampleBrownian:
    def test_starts_at_zero(self):
        w = sample_brownian(make_uniform_grid(1.0, 16), SeedSpec(0))
        assert w.values[0] == 0.0

    def test_terminal_variance(self):
        # Var W(T) = T is forced; 1e5 streams, 4 standard errors
        grid = make_uniform_grid(2.0, 4)
        seed = SeedSpec(2024)
        n = 100_000
        wt = np.array([sample_brownian(grid, seed.with_stream(i)).values[-1] for i in range(n)])
        se = np.sqrt(np.var(wt**2, ddof=1) / n)
        assert abs(np.mean(wt**2) - 2.0) <= 4 * se

    def test_deterministic(self):
        grid = make_uniform_grid(1.0, 32)
        a = sample_brownian(grid, SeedSpec(7, 3))
        b = sample_brownian(grid, SeedSpec(7, 3))
        assert np.array_equal(a.values, b.values)

    def test_distinct_streams_differ(self):
        grid = make_uniform_grid(1.0, 32)
        a = sample_brownian(grid, SeedSpec(7, 3))
        b = sample_brownian(grid, SeedSpec(7, 4))
        assert not np.array_equal(a.values, b.values)

    def test_increment_independence(self):
        # sample correlation of disjoint increments within 4/sqrt(n) of 0
        grid = make_uniform_grid(1.0, 2)
        n = 40_000
        seed = SeedSpec(5)
        inc = np.array([np.diff(sample_brownian(grid, seed.with_stream(i)).values) for i in range(n)])
        corr = np.corrcoef(inc[:, 0], inc[:, 1])[0, 1]
        assert abs(corr) <= 4 / np.sqrt(n)


class TestHaarCoefficients:
    def test_level0_is_scaled_increment(self):
        coarse = make_uniform_grid(1.0, 4)
        fine = refine_grid(coarse, 8)
        w = sample_brownian(fine, SeedSpec(21))
        idx = fine.indices_of_subgrid(coarse)
        for n in range(4):
            c = haar_coefficients(w, coarse, n, 0)
            inc = w.values[idx[n + 1]] - w.values[idx[n]]
            assert c[0] == pytest.approx(inc / np.sqrt(0.25), rel=1e-12)

    def test_level1_hand_value(self):
        # on [0,1]: c_1 = 2 W(1/2) - W(1)
        coarse = make_uniform_grid(1.0, 1)
        fine = refine_grid(coarse, 8)
        w = sample_brownian(fine, SeedSpec(22))
        c = haar_coefficients(w, coarse, 0, 1)
        half = w.values[fine.index_of(0.5)]
        assert c[1] == pytest.approx(2 * half - w.values[-1], rel=1e-12)

    def test_zero_path_zero_coefficients(self):
        from weakpathlab.core_paths import DiscretePath
        from weakpathlab.randomness import BrownianPath

        coarse = make_uniform_grid(1.0, 1)
        fine = refine_grid(coarse, 16)
        w = BrownianPath(DiscretePath(fine, np.zeros(17)))
        assert np.all(haar_coefficients(w, coarse, 0, 3) == 0.0)

    def test_non_dyadic_rejected(self):
        coarse = make_uniform_grid(1.0, 1)
        fine = refine_grid(coarse, 12)  # 12 subintervals, not a power of two
        w = sample_brownian(fine, SeedSpec(23))
        with pytest.raises(InvalidArgumentError):
            haar_coefficients(w, coarse, 0, 2)

    def test_too_few_subintervals_rejected(self):
        coarse = make_uniform_grid(1.0, 1)
        fine = refine_grid(coarse, 4)
        w = sample_brownian(fine, SeedSpec(24))
        with pytest.raises(InvalidArgumentError):
            haar_coefficients(w, coarse, 0, 3)

    def test_level0_uncorrelated_with_higher(self):
        coarse = make_uniform_grid(1.0, 1)
        fine = refine_grid(coarse, 4)
        seed = SeedSpec(25)
        n = 20_000
        coeffs = np.array(
            [haar_coefficients(sample_brownian(fine, seed.with_stream(i)), coarse, 0, 2) for i in range(n)]
        )
        for k in range(1, 4):
            corr = np.corrcoef(coeffs[:, 0], coeffs[:, k])[0, 1]
            assert abs(corr) <= 4 / np.sqrt(n)


class TestSchauderReconstruct:
    def test_level0_is_ramp(self):
        grid = make_uniform_grid(1.0, 16)
        rec = schauder_reconstruct(np.array([0.7]), (0.0, 1.0), grid)
        assert np.allclose(rec.values, 0.7 * grid.nodes, atol=1e-15)

    def test_two_levels_hit_midpoint(self):
        coarse = make_uniform_grid(1.0, 1)
        fine = refine_grid(coarse, 2)
        w = sample_brownian(fine, SeedSpec(31))
        c = haar_coefficients(w, coarse, 0, 1)
        rec = schauder_reconstruct(c, (0.0, 1.0), fine)
        assert rec.values[1] == pytest.approx(w.values[1], abs=1e-14)  # t = 0.5

    @pytest.mark.parametrize("levels", [2, 5, 8])
    def test_round_trip_at_dyadic_nodes(self, levels):
        coarse = make_uniform_grid(1.0, 1)
        fine = refine_grid(coarse, 2**levels)
        w = sample_brownian(fine, SeedSpec(32, levels))
        c = haar_coefficients(w, coarse, 0, levels)
        rec = schauder_reconstruct(c, (0.0, 1.0), fine)
        assert np.abs(rec.values - w.values).max() < 1e-12

    def test_round_trip_interior_interval(self):
        coarse = make_uniform_grid(1.0, 4)
        fine = refine_grid(coarse, 16)
        w = sample_brownian(fine, SeedSpec(33))
        c = haar_coefficients(w, coarse, 2, 4)
        rec = schauder_reconstruct(c, (0.5, 0.75), fine)
        idx = fine.indices_of_subgrid(coarse)
        inside = slice(idx[2], idx[3] + 1)
        expect = w.values[inside] - w.values[idx[2]]
        assert np.abs(rec.values[inside] - expect).max() < 1e-12
        # extended by zero outside the interval
        assert np.all(rec.values[: idx[2]] == 0.0)

    def test_higher_terms_vanish_at_endpoints(self):
        # the k >= 1 partial sum is exactly the X~ - Y shape: zero at both ends
        grid = make_uniform_grid(1.0, 64)
        rng = np.random.default_rng(9)
        c = rng.standard_normal(16)
        c[0] = 0.0
        rec = schauder_reconstruct(c, (0.0, 1.0), grid)
        assert rec.values[0] == 0.0
        assert abs(rec.values[-1]) < 1e-14

    def test_bad_coefficient_count(self):
        grid = make_uniform_grid(1.0, 8)
        with pytest.raises(InvalidArgumentError):
            schauder_reconstruct(np.ones(3), (0.0, 1.0), grid)


class TestSeedSpec:
    def test_rejects_negative(self):
        with pytest.raises(InvalidArgumentError):
            SeedSpec(-1)

    def test_subkeys_give_distinct_streams(self):
        a = SeedSpec(1).rng(3).standard_normal(8)
        b = SeedSpec(1).rng(4).standard_normal(8)
        c = SeedSpec(1).rng(3).standard_normal(8)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)
