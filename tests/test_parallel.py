import operator
from functools import reduce

import numpy as np
import pytest

from weakpathlab.parallel import Moments, batch_layout


def merged(x, batch):
    return reduce(operator.add, (Moments.of(x[o : o + m]) for o, m in batch_layout(len(x), batch)))


class TestMoments:
    @pytest.mark.parametrize("n", [2, 7, 1000, 40_000])
    def test_single_batch_is_bitwise_numpy(self, n):
        x = np.random.default_rng(n).standard_normal(n) * 3.0 + 0.7
        mom = Moments.of(x)
        assert mom.n == n and mom.excluded == 0
        assert mom.mean == x.mean()
        assert mom.se == x.std(ddof=1) / np.sqrt(n)

    @pytest.mark.parametrize("shape", [(10_007,), (10_007, 5)])
    def test_merge_in_order_matches_one_pass(self, shape):
        x = np.random.default_rng(1).standard_normal(shape) * 2.0 - 1.5
        one, parts = Moments.of(x), merged(x, 1000)
        assert parts.n == one.n == shape[0]
        np.testing.assert_allclose(parts.mean, one.mean, rtol=1e-12)
        np.testing.assert_allclose(parts.se, one.se, rtol=1e-12)

    def test_large_offset_does_not_cancel(self):
        # S2 - n mean^2 loses every digit of the variance at this offset
        x = 1e9 + np.random.default_rng(2).standard_normal(100_000)
        two_pass = x.std(ddof=1) / np.sqrt(x.size)
        assert merged(x, 4096).se == pytest.approx(two_pass, rel=1e-6)

    def test_non_finite_rows_excluded_and_counted(self):
        x = np.array([1.0, np.nan, 2.0, np.inf, -np.inf, 3.0])
        mom = Moments.of(x)
        assert (mom.n, mom.excluded, mom.mean) == (3, 3, 2.0)
        rows = np.array([[1.0, 2.0], [np.nan, 0.0], [3.0, np.inf], [5.0, 6.0]])
        mom = Moments.of(rows) + Moments.of(rows[:1])
        assert (mom.n, mom.excluded) == (3, 2)
        np.testing.assert_array_equal(mom.mean, [7.0 / 3.0, 10.0 / 3.0])

    def test_fewer_than_two_samples_have_zero_se(self):
        assert Moments.of([4.0]).se == 0.0
        assert (Moments.of([np.nan]) + Moments.of([5.0])).mean == 5.0
