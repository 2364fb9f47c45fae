import dataclasses
import operator
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest

from weakpathlab.core_paths import PathMode, interpolate_values, make_uniform_grid, refine_grid
from weakpathlab.errors import InsufficientSignalError, InvalidArgumentError
from weakpathlab.functional_calculus import _BLOCK_BYTES, _mollifier
from weakpathlab.functionals import (
    integral_functional,
    point_functional,
    product_functional,
    smooth_max_functional,
)
from weakpathlab.models import SdeModel, constant_model, ou_model, sine_model
from weakpathlab.mollifier import MollifierSpec, mollify_operator
from weakpathlab.parallel import Moments, batch_layout
from weakpathlab.randomness import SeedSpec
from weakpathlab.schemes import euler_scan, euler_values_batch
from weakpathlab.weak_error import (
    ClosedFormReference,
    _FINE_BATCH_VALUES,
    _TAG_RATE,
    _at_times,
    FineGridReference,
    GapStatsReport,
    RateExperiment,
    closed_form_expectation,
    coupled_bias,
    covariance_bias,
    fit_rate,
    interpolation_gap_stats,
    weak_rate_experiment,
)

OU = ou_model(1.0, 1.0, 1.0)


def euler_mean_oracle(theta, delta, t):
    """Exact mean of the Euler node recursion for linear drift."""
    return (1.0 - theta * delta) ** round(t / delta)


def euler_second_moment_oracle(theta, sigma, xi0, delta, t1, t2):
    """Exact E[Y(t1) Y(t2)] at nodes: deterministic moment recursions."""
    a = 1.0 - theta * delta
    k1, k2 = round(t1 / delta), round(t2 / delta)
    var = 0.0
    for _ in range(k1):
        var = a**2 * var + sigma**2 * delta
    cov = a ** (k2 - k1) * var
    return cov + xi0 * a**k1 * xi0 * a**k2, cov


class TestFitRate:
    def test_exact_line(self):
        fit = fit_rate([0.1, 0.05, 0.025], [0.05, 0.025, 0.0125])
        assert fit.rate == pytest.approx(1.0, rel=1e-12)
        assert fit.ci[1] - fit.ci[0] == pytest.approx(0.0, abs=1e-9)

    def test_exact_quadratic(self):
        fit = fit_rate([0.1, 0.05, 0.025], [0.01, 0.0025, 0.000625])
        assert fit.rate == pytest.approx(2.0, rel=1e-12)

    def test_two_points_insufficient(self):
        with pytest.raises(InsufficientSignalError):
            fit_rate([0.1, 0.05], [0.05, 0.025])

    def test_zero_bias_rejected(self):
        with pytest.raises(InsufficientSignalError):
            fit_rate([0.1, 0.05, 0.025], [0.05, 0.0, 0.0125])

    def test_weighted_fit_with_ses(self):
        fit = fit_rate([0.1, 0.05, 0.025, 0.0125], [0.051, 0.025, 0.0124, 0.0063],
                       [1e-4, 1e-4, 1e-4, 1e-4])
        assert 0.9 <= fit.rate <= 1.1
        assert fit.ci[0] <= fit.rate <= fit.ci[1]


class TestClosedFormExpectation:
    def test_point(self):
        assert closed_form_expectation(OU, point_functional(1.0)) == pytest.approx(
            np.exp(-1.0), rel=1e-12
        )

    def test_product(self):
        got = closed_form_expectation(OU, product_functional(0.5, 1.0))
        expect = 0.1917002497821018 + np.exp(-0.5) * np.exp(-1.0)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_non_ou_rejected(self):
        with pytest.raises(InvalidArgumentError):
            closed_form_expectation(constant_model(0.0, 1.0, 0.0), point_functional(1.0))


def make_exp(functional, deltas=(0.25, 0.125, 0.0625), n_base=4000, reference=None, seed=1):
    return RateExperiment(
        model=OU,
        functional=functional,
        horizon=1.0,
        deltas=deltas,
        n_base=n_base,
        reference=reference or ClosedFormReference(),
        seed=SeedSpec(seed),
    )


class TestCoupledBias:
    def test_frozen_dynamics_zero_bias(self):
        # reference factor 1: Y and the reference coincide pathwise
        model = constant_model(1.0, 0.5, 0.2)
        exp = RateExperiment(
            model=model,
            functional=point_functional(1.0),
            horizon=1.0,
            deltas=(0.25, 0.125, 0.0625),
            n_base=500,
            reference=FineGridReference(1),
            seed=SeedSpec(2),
        )
        point = coupled_bias(exp, 0)
        assert point.bias == 0.0 and point.std_error == 0.0

    def test_linear_drift_mean_bias_oracle(self):
        # Euler mean (1 - theta delta)^{T/delta} vs e^{-theta T}
        exp = make_exp(point_functional(1.0), n_base=40_000, seed=3)
        for rung, delta in enumerate(exp.deltas):
            point = coupled_bias(exp, rung)
            oracle = euler_mean_oracle(1.0, delta, 1.0) - np.exp(-1.0)
            assert abs(point.bias - oracle) <= 4 * point.std_error

    def test_halving_roughly_halves_linear_drift_bias(self):
        # property of the exact mean recursion, checked on the oracle itself
        biases = [abs(euler_mean_oracle(1.0, d, 1.0) - np.exp(-1.0)) for d in (0.125, 0.0625, 0.03125)]
        for coarse, fine in zip(biases, biases[1:]):
            assert 1.7 <= coarse / fine <= 2.3

    def test_product_bias_matches_moment_recursion(self):
        exp = make_exp(product_functional(0.5, 1.0), n_base=60_000, seed=4)
        point = coupled_bias(exp, 1)
        oracle = (
            euler_second_moment_oracle(1.0, 1.0, 1.0, 0.125, 0.5, 1.0)[0]
            - closed_form_expectation(OU, product_functional(0.5, 1.0))
        )
        assert abs(point.bias - oracle) <= 4 * point.std_error

    def test_non_finite_samples_excluded_and_counted(self):
        # sigma is NaN above 1.5: paths that get there are dropped from the
        # mean, and every one of them is counted
        model = SdeModel(
            b=lambda x: -x, sigma=lambda x: np.where(x > 1.5, np.nan, 1.0),
            db=lambda x: -1.0 + 0.0 * x, dsigma=lambda x: 0.0 * x, xi0=0.5,
        )
        exp = RateExperiment(
            model=model, functional=point_functional(1.0), horizon=1.0,
            deltas=(0.25, 0.125, 0.0625), n_base=3000, reference=FineGridReference(4),
            seed=SeedSpec(21), batch_size=1000,
        )
        point = coupled_bias(exp, 1)
        assert 0 < point.excluded
        assert point.n_samples + point.excluded == exp.n_samples(1)
        assert np.isfinite(point.bias) and np.isfinite(point.std_error)

    def test_sample_scaling_rule(self):
        exp = make_exp(point_functional(1.0))
        assert exp.n_samples(0) == 4000
        assert exp.n_samples(1) == 16000
        assert exp.n_samples(2) == 64000


class TestProbeColumns:
    @pytest.mark.parametrize("n_steps", [4, 24, 64])
    def test_kept_columns_interpolate_like_the_full_path(self, n_steps):
        # the scheme path is kept only at the nodes bracketing each probe;
        # the blend must equal interpolating the full path bit for bit
        model = sine_model(0.5, 1.0, 0.3)
        grid = make_uniform_grid(1.0, n_steps)
        times = [0.0, 0.3, 1.0 / 3.0, 0.5, 0.77, 1.0]
        dw = np.sqrt(grid.mesh) * SeedSpec(n_steps).rng().standard_normal((300, n_steps))
        full = euler_values_batch(model, grid, dw)
        want = interpolate_values(grid.nodes, full, np.asarray(times))
        assert np.array_equal(_at_times(model, grid, 300, dw, times), want)

    def test_probe_outside_horizon_rejected(self):
        grid = make_uniform_grid(1.0, 8)
        with pytest.raises(InvalidArgumentError):
            _at_times(OU, grid, 4, np.zeros((4, 8)), [0.5, 1.5])


class TestWeakRateExperiment:
    def test_ou_product_rate_small_budget(self):
        exp = make_exp(product_functional(0.5, 1.0), deltas=(0.25, 0.125, 0.0625, 0.03125),
                       n_base=30_000, seed=5)
        report = weak_rate_experiment(exp)
        assert report.status == "ok"
        assert report.signal_rungs >= 3
        assert 0.5 <= report.fitted_rate <= 1.5

    def test_insufficient_signal_flagged(self):
        exp = make_exp(product_functional(0.5, 1.0), n_base=10, seed=6)
        report = weak_rate_experiment(exp)
        assert report.status == "insufficient-signal"
        assert report.fitted_rate is None

    def test_report_csv_shape(self):
        exp = make_exp(point_functional(1.0), n_base=500, seed=7)
        report = weak_rate_experiment(exp)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "delta,n_samples,bias,std_error,excluded"
        assert len(lines) == 1 + len(exp.deltas)

    def test_reference_bias_note(self):
        closed = weak_rate_experiment(make_exp(point_functional(1.0), n_base=500, seed=7))
        assert "no reference bias" in closed.reference_note
        fine = weak_rate_experiment(
            make_exp(point_functional(1.0), n_base=500, seed=7, reference=FineGridReference(16))
        )
        assert "factor 16" in fine.reference_note
        assert fine.summary()["reference"] == fine.reference_note

    def test_determinism_and_thread_invariance(self):
        exp_a = make_exp(product_functional(0.5, 1.0), n_base=3000, seed=8)
        exp_b = RateExperiment(
            model=OU, functional=product_functional(0.5, 1.0), horizon=1.0,
            deltas=exp_a.deltas, n_base=3000, reference=ClosedFormReference(),
            seed=SeedSpec(8), threads=3,
        )
        ra, rb = weak_rate_experiment(exp_a), weak_rate_experiment(exp_b)
        assert ra.to_csv() == rb.to_csv()
        assert ra.fitted_rate == rb.fitted_rate

    def test_ladder_validation(self):
        with pytest.raises(InvalidArgumentError):
            make_exp(point_functional(1.0), deltas=(0.25, 0.125))
        with pytest.raises(InvalidArgumentError):
            make_exp(point_functional(1.0), deltas=(0.125, 0.25, 0.5))
        with pytest.raises(InvalidArgumentError):
            make_exp(point_functional(1.0), deltas=(0.5, 0.3, 0.125))  # 0.3 not dividing T

    def test_mollified_needs_fine_reference(self):
        with pytest.raises(InvalidArgumentError):
            RateExperiment(
                model=OU, functional=point_functional(1.0), horizon=1.0,
                deltas=(0.25, 0.125, 0.0625), n_base=100,
                reference=ClosedFormReference(), seed=SeedSpec(9), eps=0.05,
            )

    def test_mollified_bias_with_fine_reference(self):
        # smoothing window must cover two coarse intervals, so the ladder
        # starts finer when a mollifier is in play
        exp = RateExperiment(
            model=OU, functional=point_functional(1.0), horizon=1.0,
            deltas=(0.0625, 0.03125, 0.015625), n_base=2000,
            reference=FineGridReference(8), seed=SeedSpec(20), eps=0.125,
        )
        point = coupled_bias(exp, 0)
        assert np.isfinite(point.bias) and point.n_samples == 2000
        assert coupled_bias(exp, 0).bias == point.bias


def integral_square():
    return integral_functional(lambda u: u**2, lambda u: 2.0 * u, lambda u: 2.0 + 0.0 * u)


def band_tiled(spec, g, values):
    return _mollifier(spec, g)(values)


def dense(spec, g, values):
    return values @ mollify_operator(spec, g, PathMode.LINEAR).T


def materialised_bias(exp, rung, mollified=band_tiled):
    """coupled_bias with a fine reference, holding every array: all fine
    increments drawn at once, coarse ones as block sums, two full scans,
    and f (mollified on whole paths in one call) on whole paths."""
    grid = exp.grid(rung)
    factor = exp.reference.factor
    fine = refine_grid(grid, factor)
    f = exp.functional

    def f_on(g, values):
        if exp.eps is not None:
            return f.batch_eval(mollified(MollifierSpec(exp.eps), g, values), g)
        if f.probe_times is not None:
            return f.probe_eval(interpolate_values(g.nodes, values, f.probe_times))
        return f.batch_eval(values, g)

    batch = max(1, min(exp.batch_size, _FINE_BATCH_VALUES // fine.n_intervals))
    parts = []
    for bi, (_, m) in enumerate(batch_layout(exp.n_samples(rung), batch)):
        dw_fine = exp.seed.rng(_TAG_RATE, rung, bi).standard_normal((fine.n_intervals, m))
        dw_fine *= np.sqrt(np.diff(fine.nodes))[:, None]
        dw_coarse = dw_fine.reshape(grid.n_intervals, factor, m).sum(axis=1)
        y = euler_scan(exp.model, grid, exp.model.xi0, dw_coarse.T)
        x = euler_scan(exp.model, fine, exp.model.xi0, dw_fine.T)
        parts.append(Moments.of(f_on(grid, y) - f_on(fine, x)))
    return reduce(operator.add, parts)


# b overflows to inf once a path passes 1.5, so those rows end non-finite
EXPLODING = SdeModel(
    b=lambda x: np.where(x > 1.5, np.exp(1e3 * x), -x), sigma=lambda x: 1.0 + 0.0 * x,
    db=lambda x: 0.0 * x, dsigma=lambda x: 0.0 * x, xi0=0.5,
)

# b overflows to +inf above 1.5 and to -inf below -1.5; some rows cross only
# in their last step, so they are non-finite at the last node alone
EXPLODING_BOTH = SdeModel(
    b=lambda x: np.where(np.abs(x) > 1.5, np.sign(x) * np.exp(1e3 * np.abs(x)), -x),
    sigma=lambda x: 1.0 + 0.0 * x,
    db=lambda x: 0.0 * x, dsigma=lambda x: 0.0 * x, xi0=0.0,
)


@dataclasses.dataclass(frozen=True)
class CountingDraws(SeedSpec):
    """A SeedSpec whose generators record the size of every standard_normal call."""

    sizes: list = dataclasses.field(default_factory=list)

    def rng(self, *subkeys: int):
        gen, sizes = super().rng(*subkeys), self.sizes

        class Counting:
            def standard_normal(self, *args, **kwargs):
                z = gen.standard_normal(*args, **kwargs)
                sizes.append(np.size(z))
                return z

        return Counting()


class TestStreamedCoupling:
    """The fine increments are drawn one coarse step at a time and summed
    into the coarse ones as the fine scan runs; every bit equals the
    materialised coupling."""

    @pytest.mark.parametrize("factor", [4, 16])
    @pytest.mark.parametrize(
        "model, functional, eps",
        [
            (sine_model(0.5, 1.0, 0.5), integral_square(), 0.25),
            (sine_model(0.5, 1.0, 0.5), point_functional(1.0), None),
            (OU, product_functional(0.5, 1.0), None),
            (OU, integral_square(), 0.25),
            (EXPLODING, point_functional(1.0), None),
        ],
    )
    def test_bitwise_equal_to_materialised(self, model, functional, eps, factor):
        exp = RateExperiment(
            model=model, functional=functional, horizon=1.0, deltas=(0.125, 0.0625, 0.03125),
            n_base=700, reference=FineGridReference(factor), seed=SeedSpec(41), eps=eps,
            batch_size=300,
        )
        point = coupled_bias(exp, 0)
        ref = materialised_bias(exp, 0)
        assert (point.n_samples, point.excluded) == (ref.n, ref.excluded)
        assert point.bias == float(ref.mean) and point.std_error == float(ref.se)
        if model is EXPLODING:
            assert 0 < point.excluded < 700

    def test_one_row_batches_equal_materialised(self):
        # a coarse increment of one sample is a contiguous reduction, which
        # numpy sums pairwise, as it does the materialised block sums
        exp = RateExperiment(
            model=sine_model(0.5, 1.0, 0.5), functional=point_functional(1.0), horizon=1.0,
            deltas=(0.125, 0.0625, 0.03125), n_base=40, reference=FineGridReference(16),
            seed=SeedSpec(45), batch_size=1,
        )
        point = coupled_bias(exp, 0)
        ref = materialised_bias(exp, 0)
        assert point.n_samples == ref.n == 40
        assert point.bias == float(ref.mean) and point.std_error == float(ref.se)

    def test_one_draw_per_coarse_step(self):
        # 700 samples in batches of 300, 300 and 100 on 8 coarse steps of 4
        # fine ones: one standard_normal call per coarse step and batch, of
        # factor * m values; the closed-form ladder makes one per step
        fine_exp, closed_exp = (
            RateExperiment(
                model=OU, functional=product_functional(0.5, 1.0), horizon=1.0,
                deltas=(0.125, 0.0625, 0.03125), n_base=700, reference=reference,
                seed=CountingDraws(46), batch_size=300,
            )
            for reference in (FineGridReference(4), ClosedFormReference())
        )
        for exp, per_step in ((fine_exp, 4), (closed_exp, 1)):
            point = coupled_bias(exp, 0)
            assert exp.seed.sizes == [per_step * m for m in (300, 300, 100) for _ in range(8)]
            assert sum(exp.seed.sizes) == 700 * 8 * per_step
            plain = dataclasses.replace(exp, seed=SeedSpec(46))
            assert coupled_bias(plain, 0) == point

    @pytest.mark.parametrize(
        "functional", [integral_square(), smooth_max_functional(4.0)],
        ids=["integral-square", "smooth-max"],
    )
    def test_band_tiles_exclude_the_rows_the_dense_product_excludes(self, functional):
        exp = RateExperiment(
            model=EXPLODING_BOTH, functional=functional, horizon=1.0,
            deltas=(0.125, 0.0625, 0.03125), n_base=700, reference=FineGridReference(64),
            seed=SeedSpec(43), eps=0.25, batch_size=300,
        )
        with np.errstate(all="ignore"):
            point = coupled_bias(exp, 0)
            ref = materialised_bias(exp, 0, mollified=dense)
        assert (point.n_samples, point.excluded) == (ref.n, ref.excluded)
        assert 0 < point.excluded < 700

    @pytest.mark.parametrize("functional", [point_functional(1.0), product_functional(0.5, 1.0)])
    def test_overflowing_rows_raise_no_warning(self, functional):
        exp = RateExperiment(
            model=EXPLODING, functional=functional, horizon=1.0, deltas=(0.125, 0.0625, 0.03125),
            n_base=700, reference=FineGridReference(4), seed=SeedSpec(41), batch_size=300,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            point = coupled_bias(exp, 0)
        assert 0 < point.excluded < 700

    def test_peak_memory_is_one_fine_path_and_its_blocks(self):
        # one rung of 8192 samples on 1025 fine nodes runs as four 2048-row
        # batches set by the path budget; a batch's fine path is the only
        # full-size array, mollification runs in row blocks, the draws in
        # one (factor, m) block per coarse step, and no batch outlives its
        # moments
        exp = RateExperiment(
            model=sine_model(0.5, 1.0, 0.5), functional=integral_square(), horizon=1.0,
            deltas=(1 / 16, 1 / 32, 1 / 64), n_base=8192, reference=FineGridReference(64),
            seed=SeedSpec(42), eps=0.25,
        )
        grid = exp.grid(0)
        fine = refine_grid(grid, 64)
        batch = _FINE_BATCH_VALUES // fine.n_intervals
        assert batch_layout(8192, batch) == [(0, 2048), (2048, 2048), (4096, 2048), (6144, 2048)]
        for g in (grid, fine):  # warm the operator cache
            mollify_operator(MollifierSpec(0.25), g, PathMode.LINEAR)
        path_bytes = batch * fine.nodes.size * 8
        blocks = -(-batch // (_BLOCK_BYTES // (fine.nodes.size * 8)))
        row_block_bytes = -(-batch // blocks) * fine.nodes.size * 8
        draw_bytes = 64 * batch * 8
        bound = path_bytes + 2 * row_block_bytes + draw_bytes + (2 << 20)
        assert bound < 2 * 32.8e6  # twice the fine path of a 2^22-value batch
        tracemalloc.start()
        try:
            point = coupled_bias(exp, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert point.n_samples == 8192
        assert peak < bound, f"peak {peak / 1e6:.1f} MB above the {bound / 1e6:.1f} MB bound"

    def test_budget_set_batches_are_thread_invariant(self):
        # 2560 samples on 2049 fine nodes: the path budget, not batch_size,
        # splits the rung into two 1024-row batches and a 512-row batch
        exps = [
            RateExperiment(
                model=sine_model(0.5, 1.0, 0.5), functional=integral_square(), horizon=1.0,
                deltas=(1 / 8, 1 / 16, 1 / 32), n_base=160, reference=FineGridReference(64),
                seed=SeedSpec(44), eps=0.25, threads=threads,
            )
            for threads in (1, 2)
        ]
        assert exps[0].n_samples(2) == 2560
        assert batch_layout(2560, _FINE_BATCH_VALUES // 2048) == [(0, 1024), (1024, 1024), (2048, 512)]
        one, two = (coupled_bias(exp, 2) for exp in exps)
        assert one.n_samples == 2560
        assert one == two


class TestCovarianceBias:
    def test_deterministic_start_zero_bias(self):
        grid = make_uniform_grid(1.0, 8)
        point = covariance_bias(OU, 0.0, 0.0, grid, 2000, SeedSpec(10))
        assert point.bias == pytest.approx(0.0, abs=1e-12)

    def test_matches_moment_recursion_oracle(self):
        grid = make_uniform_grid(1.0, 8)
        point = covariance_bias(OU, 0.5, 1.0, grid, 400_000, SeedSpec(11))
        cov_y = euler_second_moment_oracle(1.0, 1.0, 1.0, 0.125, 0.5, 1.0)[1]
        oracle = cov_y - 0.1917002497821018
        assert abs(point.bias - oracle) <= 4 * point.std_error

    def test_non_ou_rejected(self):
        grid = make_uniform_grid(1.0, 8)
        with pytest.raises(InvalidArgumentError):
            covariance_bias(constant_model(0.0, 1.0, 0.0), 0.5, 1.0, grid, 100, SeedSpec(12))


class TestInterpolationGapStats:
    def test_zero_diffusion_zero_gap(self):
        model = constant_model(1.0, 1e-12, 0.0)  # effectively drift only
        grid = make_uniform_grid(1.0, 4)
        fine = refine_grid(grid, 8)
        rep = interpolation_gap_stats(model, grid, fine, 500, SeedSpec(13))
        assert abs(rep.probe_mean).max() < 1e-10
        assert rep.sup4_over_delta2 < 1e-30

    def test_pure_noise_statistics(self):
        model = constant_model(0.0, 1.0, 0.0)
        grid = make_uniform_grid(1.0, 8)
        fine = refine_grid(grid, 32)
        rep = interpolation_gap_stats(
            model, grid, fine, 8000, SeedSpec(14), functional=product_functional(0.3, 0.7)
        )
        assert rep.probes_pass
        assert rep.pairing_pass
        assert rep.sup4_over_delta2 <= 1.25 * 48.0 * (4.0 / 3.0) ** 4

    def test_coupling_block_sums_bitexact(self):
        # the coarse increments the harness feeds Y are exact block sums
        rng = SeedSpec(15).rng(13, 0)
        fine = refine_grid(make_uniform_grid(1.0, 4), 8)
        dw_fine = np.sqrt(np.diff(fine.nodes)) * rng.standard_normal((3, 32))
        blocks = dw_fine.reshape(3, 4, 8).sum(axis=2)
        manual = np.stack([np.add.reduce(dw_fine[:, 8 * k : 8 * (k + 1)], axis=1) for k in range(4)], axis=1)
        assert np.array_equal(blocks, manual)

    def test_infinite_se_fails_the_checks(self):
        rep = GapStatsReport(0.1, 10, np.array([0.5]), np.array([1.0]), np.array([np.inf]),
                             0.0, 0.0, 1.0, np.inf)
        assert not rep.probes_pass and not rep.pairing_pass

    def test_non_nested_rejected(self):
        model = constant_model(0.0, 1.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            interpolation_gap_stats(
                model, make_uniform_grid(1.0, 3), make_uniform_grid(1.0, 4), 100, SeedSpec(16)
            )
