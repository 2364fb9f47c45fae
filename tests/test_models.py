import numpy as np
import pytest

from weakpathlab.errors import InvalidArgumentError
from weakpathlab.models import ou_exact_moments, ou_model, sine_model

PROBES = np.linspace(-4.0, 4.0, 21)


class TestOuModel:
    def test_drift_at_origin(self):
        m = ou_model(2.3, 1.0, 0.0)
        assert m.b(0.0) == 0.0

    def test_constant_diffusion_derivative(self):
        m = ou_model(1.0, 0.7, 0.0)
        assert np.all(np.asarray(m.dsigma(PROBES)) == 0.0)

    def test_linear_drift_derivative(self):
        m = ou_model(1.7, 1.0, 0.0)
        assert np.all(np.asarray(m.db(PROBES)) == -1.7)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidArgumentError):
            ou_model(0.0, 1.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            ou_model(1.0, -1.0, 0.0)


class TestSineModel:
    def test_sigma_range(self):
        m = sine_model(0.5, 1.0, 0.0)
        s = np.asarray(m.sigma(PROBES))
        assert np.all(s >= 0.5) and np.all(s <= 1.5)

    def test_degeneracy_boundary(self):
        with pytest.raises(InvalidArgumentError):
            sine_model(1.0, 1.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            sine_model(0.0, 1.0, 0.0)


class TestOuExactMoments:
    def test_mean_at_one(self):
        mom = ou_exact_moments(1.0, 1.0, 1.0, 1.0, 1.0)
        assert mom.mean1 == pytest.approx(0.36787944117144233, rel=1e-12)

    def test_stationary_variance_part(self):
        mom = ou_exact_moments(1.0, 1.0, 1.0, 1.0, 1.0)
        assert mom.cov == pytest.approx((1 - np.exp(-2.0)) / 2.0, rel=1e-12)

    def test_cross_covariance(self):
        mom = ou_exact_moments(1.0, 1.0, 1.0, 0.5, 1.0)
        assert mom.cov == pytest.approx(0.1917002497821018, rel=1e-12)

    def test_against_exact_transition_sampling(self):
        # independent oracle: sample the OU transition law directly
        theta, sig, xi0, t1, t2 = 1.3, 0.8, 0.5, 0.4, 0.9
        rng = np.random.default_rng(77)
        n = 400_000
        v1 = sig**2 / (2 * theta) * (1 - np.exp(-2 * theta * t1))
        x1 = xi0 * np.exp(-theta * t1) + np.sqrt(v1) * rng.standard_normal(n)
        dt = t2 - t1
        v2 = sig**2 / (2 * theta) * (1 - np.exp(-2 * theta * dt))
        x2 = x1 * np.exp(-theta * dt) + np.sqrt(v2) * rng.standard_normal(n)
        mom = ou_exact_moments(theta, sig, xi0, t1, t2)
        prod = x1 * x2
        se = prod.std(ddof=1) / np.sqrt(n)
        assert abs(prod.mean() - (mom.cov + mom.mean1 * mom.mean2)) <= 4 * se

    def test_time_order_enforced(self):
        with pytest.raises(InvalidArgumentError):
            ou_exact_moments(1.0, 1.0, 0.0, 1.0, 0.5)

