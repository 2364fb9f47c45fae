import numpy as np
import pytest

from weakpathlab.core_paths import (
    DiscretePath,
    PathMode,
    TimeGrid,
    make_uniform_grid,
)
from weakpathlab.errors import (
    BudgetExceededError,
    InvalidArgumentError,
    OutOfRangeError,
)
from weakpathlab.functional_calculus import (
    ErrorRepresentationReport,
    NestedEstimate,
    ResidualReport,
    error_representation_sides,
    estimate_F,
    horizontal_derivative,
    ito_residual,
    ito_rms_study,
    kolmogorov_residual,
    martingale_gap,
    second_vertical_derivative,
    vertical_derivative,
)
from weakpathlab.functionals import point_functional, product_functional
from weakpathlab.models import SdeModel, ou_model, sine_model
from weakpathlab.mollifier import MollifierSpec, mollify
from weakpathlab.randomness import BrownianPath, SeedSpec, sample_brownian

FINE = make_uniform_grid(1.0, 128)
EPS = 2.0 / 128
OU = ou_model(1.0, 1.0, 1.0)
SINE = sine_model(0.5, 1.0, 0.5)


def frozen_model(xi0):
    return SdeModel(
        b=lambda x: 0.0 * x,
        sigma=lambda x: 0.0 * x,
        db=lambda x: 0.0 * x,
        d2b=lambda x: 0.0 * x,
        dsigma=lambda x: 0.0 * x,
        d2sigma=lambda x: 0.0 * x,
        nondegeneracy_c=0.0,
        xi0=xi0,
        constant_sigma=True,
    )


def constant_prefix(t, value, fine=FINE):
    i = fine.index_of(t)
    return DiscretePath(TimeGrid(fine.nodes[: i + 1]), np.full(i + 1, value), PathMode.LINEAR)


class TestEstimateF:
    def test_full_horizon_is_deterministic(self):
        w = sample_brownian(FINE, SeedSpec(1)).path
        f = product_functional(0.4, 1.0)
        est = estimate_F(OU, w, f, EPS, 500, SeedSpec(2), FINE)
        assert est.std_error == 0.0
        assert est.value == pytest.approx(f.eval(mollify(MollifierSpec(EPS), w)), rel=1e-12)

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
        prefix = DiscretePath(other, np.ones(33), PathMode.LINEAR)
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
        prefix = DiscretePath(TimeGrid(FINE.nodes[:65]), 0.9 + w.values, PathMode.LINEAR)
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

    def test_prefix_support_condition(self):
        bad = constant_prefix(0.5, 2.0)  # does not start at xi0 = 1
        with pytest.raises(InvalidArgumentError):
            kolmogorov_residual(OU, bad, point_functional(1.0), EPS, 16, SeedSpec(23), FINE, n_outer=2)

    def test_prefix_must_be_continuous(self):
        prefix = constant_prefix(0.5, 1.0)
        jumpy = DiscretePath(prefix.grid, prefix.values, PathMode.CADLAG_STEP)
        with pytest.raises(InvalidArgumentError):
            kolmogorov_residual(OU, jumpy, point_functional(1.0), EPS, 16, SeedSpec(24), FINE, n_outer=2)


class TestMartingaleGap:
    def test_equal_times_vanish(self):
        rep = martingale_gap(OU, point_functional(1.0), EPS, (0.5, 0.5), 8, SeedSpec(25), FINE)
        assert rep.residual == 0.0 and rep.passed

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


class TestItoResidual:
    def test_zero_path_telescoping(self):
        grid = make_uniform_grid(1.0, 16)
        w = BrownianPath(DiscretePath(grid, np.zeros(17), PathMode.LINEAR))
        rep = ito_residual(w)
        assert rep.components["telescoping"] == 0.0
        assert rep.residual == pytest.approx(-1.0)  # QV fluctuation of the null path

    def test_single_step_telescoping_exact(self):
        grid = make_uniform_grid(1.0, 1)
        w = sample_brownian(grid, SeedSpec(29))
        rep = ito_residual(w)
        assert rep.components["telescoping"] == pytest.approx(0.0, abs=1e-14)

    def test_residual_is_qv_fluctuation(self):
        w = sample_brownian(make_uniform_grid(1.0, 64), SeedSpec(30))
        rep = ito_residual(w)
        dw2 = float(np.sum(np.diff(w.values) ** 2))
        assert rep.residual == pytest.approx(dw2 - 1.0, abs=1e-12)
        assert abs(rep.components["telescoping"]) < 1e-12
        assert rep.passed  # 4-sigma bound on the QV fluctuation

    def test_rms_contraction_rate(self):
        study = ito_rms_study(1.0, [16, 32, 64, 128], 4000, SeedSpec(31))
        for ratio in study["ratios"]:
            assert 1.2 <= ratio <= 1.7


class TestErrorRepresentation:
    COARSE = make_uniform_grid(0.25, 2)
    EPS_FINE = 2 * 0.25 / 128

    def test_ou_identity(self):
        rep = error_representation_sides(
            OU, point_functional(0.25), self.EPS_FINE, self.COARSE, 128, 128, SeedSpec(32)
        )
        assert rep.passed
        assert abs(rep.lhs.value) > 4 * rep.lhs.std_error  # the bias itself is resolved

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


def test_non_finite_value_or_tolerance_fails():
    assert ResidualReport.make(0.5, 1.0, {}).passed
    for value, tol in ((1.0, np.inf), (np.nan, 1.0), (np.inf, np.inf)):
        assert not ResidualReport.make(value, tol, {}).passed
    est = NestedEstimate(0.0, 0.0, 0, {})
    assert ErrorRepresentationReport(est, est, 1.0, 1.0).passed
    assert not ErrorRepresentationReport(est, est, 1.0, np.inf).passed
