"""Coupled Monte-Carlo bias estimation across a mesh ladder and rate fits.

Per sample the scheme and its reference are driven by one Brownian path:
coarse increments are exact block sums of fine increments, so the coupling
is bit-reproducible.  With a closed-form reference (OU with point or product
functionals) no reference path is simulated at all and the reported bias
carries no reference bias.

Scheme and reference paths come from the one Euler kernel,
:func:`schemes.euler_scan`, and f (mollified or not) is evaluated on them by
the one batch evaluator of :mod:`functional_calculus`.  Without a
mollifier, a functional that reads only probe times keeps just the node
columns bracketing them and interpolates those.

Batches have a fixed, thread-independent layout; each derives its own
random stream from its index and its :class:`parallel.Moments` partials are
merged in index order, so reports are pure functions of (experiment, master
seed).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Union

import numpy as np

from .core_paths import TimeGrid, interpolate_values, make_uniform_grid, refine_grid
from .errors import InsufficientSignalError, InvalidArgumentError
from .functionals import PathFunctional
from .models import SdeModel, ou_exact_moments
from .functional_calculus import _draw_dw, _fd1_batch, _feps_batch, _probe_times, _spec, _within
from .mollifier import MollifierSpec
from .mollifier import mollify_operator  # noqa: F401  (wrapped by name in perfbench/tracing.py)
from .parallel import Moments, batch_layout, deterministic_batch_map
from .randomness import SeedSpec
from .schemes import euler_scan, euler_values_batch, stochastic_interpolation_batch

__all__ = [
    "ClosedFormReference",
    "FineGridReference",
    "RateExperiment",
    "BiasPoint",
    "RateFit",
    "WeakErrorReport",
    "GapStatsReport",
    "coupled_bias",
    "fit_rate",
    "weak_rate_experiment",
    "covariance_bias",
    "interpolation_gap_stats",
    "closed_form_expectation",
    "ladder_steps",
    "ladder_samples",
]

_TAG_RATE = 11
_TAG_COV = 12
_TAG_GAP = 13

# fine path values per fine-grid coupling batch: about 16 MiB of fine path,
# the largest array a coupling holds, per batch and so per worker; it fixes
# the batch layout, and so the streams drawn
_FINE_BATCH_VALUES = 1 << 21

# samples per interpolation_gap_stats batch; it fixes the batch layout, and
# so the streams drawn
_GAP_BATCH = 4096


@dataclass(frozen=True)
class ClosedFormReference:
    pass


@dataclass(frozen=True)
class FineGridReference:
    factor: int = 64

    def __post_init__(self):
        if self.factor < 1:
            raise InvalidArgumentError("refinement factor must be >= 1")


Reference = Union[ClosedFormReference, FineGridReference]


def ladder_steps(horizon: float, deltas) -> list[int]:
    """Step counts T / delta of a mesh ladder, one per rung.  Every delta
    must be finite and positive, the ladder strictly decreasing, and each
    delta must divide the horizon T."""
    d = np.asarray(deltas, dtype=np.float64)
    if d.ndim != 1 or not np.all(np.isfinite(d) & (d > 0)) or np.any(np.diff(d) >= 0):
        raise InvalidArgumentError(
            f"delta ladder {deltas!r} must be finite, positive and strictly decreasing"
        )
    steps = np.rint(horizon / d)
    for delta, n in zip(d, steps):
        if not (n >= 1 and abs(n * delta - horizon) <= 1e-9 * horizon):
            raise InvalidArgumentError(f"delta {delta} does not divide the horizon {horizon}")
    return [int(n) for n in steps]


def ladder_samples(n_base: int, deltas) -> list[int]:
    """Samples per rung: ``n_base`` at delta_0, scaled by (delta_0 / delta)^2
    below it, so the relative noise is rung-uniform when the bias is O(delta)."""
    return [int(math.ceil(n_base * (deltas[0] / d) ** 2)) for d in deltas]


@dataclass(frozen=True)
class RateExperiment:
    """A bias-versus-mesh study over a delta ladder of at least three rungs
    (see :func:`ladder_steps` and :func:`ladder_samples`)."""

    model: SdeModel
    functional: PathFunctional
    horizon: float
    deltas: tuple
    n_base: int
    reference: Reference
    seed: SeedSpec
    eps: Optional[float] = None
    batch_size: int = 1 << 17
    threads: int = 1

    def __post_init__(self):
        if len(self.deltas) < 3:
            raise InvalidArgumentError(f"delta ladder {self.deltas!r} needs >= 3 rungs")
        ladder_steps(self.horizon, self.deltas)
        if self.n_base < 2:
            raise InvalidArgumentError("n_base must be >= 2")
        if self.eps is not None and isinstance(self.reference, ClosedFormReference):
            raise InvalidArgumentError(
                "a mollified functional has no closed-form reference; use FineGridReference"
            )

    def grid(self, rung: int) -> TimeGrid:
        return make_uniform_grid(self.horizon, ladder_steps(self.horizon, self.deltas)[rung])

    def n_samples(self, rung: int) -> int:
        return ladder_samples(self.n_base, self.deltas)[rung]


@dataclass(frozen=True)
class BiasPoint:
    delta: float
    n_samples: int
    bias: float
    std_error: float
    excluded: int


@dataclass(frozen=True)
class RateFit:
    rate: float
    ci: tuple[float, float]
    slope_se: float


@dataclass
class WeakErrorReport:
    rungs: list
    fitted_rate: Optional[float]
    rate_ci: Optional[tuple]
    signal_rungs: int
    reference_note: str
    status: str = "ok"  # ok | insufficient-signal

    def to_csv(self) -> str:
        lines = ["delta,n_samples,bias,std_error,excluded"]
        for r in self.rungs:
            lines.append(
                f"{r.delta!r},{r.n_samples},{r.bias!r},{r.std_error!r},{r.excluded}"
            )
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        return {
            "rate": self.fitted_rate,
            "rate_ci": list(self.rate_ci) if self.rate_ci else None,
            "signal_rungs": self.signal_rungs,
            "reference": self.reference_note,
            "status": self.status,
        }


def closed_form_expectation(model: SdeModel, f: PathFunctional) -> float:
    """E f(X) in closed form; OU with point/product functionals only."""
    if model.name != "ou" or not model.params:
        raise InvalidArgumentError("closed-form reference needs the OU model")
    if f.probe_times is None or len(f.probe_times) not in (1, 2):
        raise InvalidArgumentError(
            "closed-form reference covers point and product functionals only"
        )
    theta, sig, xi0 = model.params["theta"], model.params["sigma"], model.params["xi0"]
    if len(f.probe_times) == 1:
        return ou_exact_moments(theta, sig, xi0, f.probe_times[0], f.probe_times[0]).mean1
    t1, t2 = sorted(f.probe_times)
    mom = ou_exact_moments(theta, sig, xi0, t1, t2)
    return mom.cov + mom.mean1 * mom.mean2


def _gaussian_rows(rng: np.random.Generator, grid: TimeGrid, m: int, block: int = 1, sums=None):
    """Increment source: row(k) is the (m,) Brownian increments of step k,
    called for k = 0, 1, ... in order.  The rows of ``block`` steps are drawn
    by one call into one held (block, m) buffer and scaled by its sqrt(dt)
    column, so the draws are those of standard_normal((N, m)); a row lives
    until the next block is drawn, and the buffer is let go with the last
    row.  With ``sums``, row j of it receives the sum of block j's rows."""
    sqdt = np.sqrt(np.diff(grid.nodes))[:, None]
    buf = np.empty((block, m))

    def row(k: int) -> np.ndarray:
        nonlocal buf
        j = k % block
        if j == 0:
            rng.standard_normal(out=buf)
            np.multiply(buf, sqdt[k : k + block], out=buf)
            if sums is not None:
                np.add.reduce(buf, axis=0, out=sums[k // block])
        out, buf = buf[j], (None if k == len(sqdt) - 1 else buf)
        return out

    return row


def _at_times(model: SdeModel, grid: TimeGrid, m: int, dw, times) -> np.ndarray:
    """Y at ``times`` for m scheme paths, computing only the bracketing node
    columns (interpolated as :func:`interpolate_values` does on the full path)."""
    t = _probe_times(grid, times)
    k = np.clip(np.searchsorted(grid.nodes, t, side="right") - 1, 0, grid.n_intervals - 1)
    keep = np.union1d(k, k + 1)
    vals = euler_scan(model, grid, np.broadcast_to(model.xi0, (m,)), dw, keep=keep)
    return interpolate_values(grid.nodes[keep], vals, t)


def _f_on_scheme(
    f: PathFunctional, spec: Optional[MollifierSpec], grid: TimeGrid, model: SdeModel, m: int, dw
) -> np.ndarray:
    """f (mollified when ``spec`` is given) on m Euler paths on ``grid`` driven by ``dw``."""
    if spec is None and f.probe_times is not None:
        return f.probe_eval(_at_times(model, grid, m, dw, f.probe_times))
    return _feps_batch(f, spec, grid, euler_scan(model, grid, np.broadcast_to(model.xi0, (m,)), dw))


def coupled_bias(exp: RateExperiment, rung: int) -> BiasPoint:
    """Sample mean of f(Y) minus the reference value at one ladder rung.

    Overflowed samples (non-finite scheme values) are excluded and counted.
    """
    grid = exp.grid(rung)
    n = exp.n_samples(rung)
    delta = float(exp.deltas[rung])
    f = exp.functional
    spec = _spec(exp.eps)

    fine_ref = isinstance(exp.reference, FineGridReference)
    if fine_ref:
        factor = exp.reference.factor
        fine = refine_grid(grid, factor)
        batch = max(1, min(exp.batch_size, _FINE_BATCH_VALUES // max(1, fine.n_intervals)))
    else:
        ref_value = closed_form_expectation(exp.model, f)
        batch = max(1, min(exp.batch_size, n))
    layout = batch_layout(n, batch)

    def worker(bi: int):
        off, m = layout[bi]
        rng = exp.seed.rng(_TAG_RATE, rung, bi)
        if fine_ref:
            # one fine Brownian path per sample: coarse increments are exact
            # block sums of the fine ones (common random numbers), formed as
            # the fine scan draws each coarse step's rows, so no (n_fine, m)
            # increment array is held; the draws and sums are those of
            # standard_normal((n_fine, m)) and reshape(...).sum(axis=1)
            dw_coarse = np.empty((grid.n_intervals, m))
            fine_row = _gaussian_rows(rng, fine, m, factor, dw_coarse)
            g_fine = _f_on_scheme(f, spec, fine, exp.model, m, fine_row)
            g = _f_on_scheme(f, spec, grid, exp.model, m, dw_coarse.__getitem__) - g_fine
        else:
            g = _f_on_scheme(f, None, grid, exp.model, m, _gaussian_rows(rng, grid, m)) - ref_value
        return Moments.of(g)

    mom = reduce(operator.add, deterministic_batch_map(worker, len(layout), exp.threads))
    if mom.n < 2:
        raise InvalidArgumentError("all samples excluded; cannot estimate the bias")
    return BiasPoint(delta, mom.n, float(mom.mean), float(mom.se), mom.excluded)


def fit_rate(deltas, biases, std_errors=None) -> RateFit:
    """Weighted least squares of log|bias| on log delta.

    Weights are 1/SE(log bias)^2 via the delta method.  The slope's
    confidence interval comes from the weighted residuals, so exactly
    collinear points give a degenerate interval.
    """
    d = np.asarray(deltas, dtype=np.float64)
    b = np.abs(np.asarray(biases, dtype=np.float64))
    if d.size < 3:
        raise InsufficientSignalError(f"need >= 3 signal points, got {d.size}")
    if np.any(b == 0.0):
        raise InsufficientSignalError("zero bias point cannot enter a log-log fit")
    x = np.log(d)
    y = np.log(b)
    if std_errors is None:
        w = np.ones_like(x)
    else:
        se_log = np.asarray(std_errors, dtype=np.float64) / b
        w = 1.0 / np.where(se_log > 0, se_log, np.min(se_log[se_log > 0], initial=1.0)) ** 2
    sw, sx, sy = w.sum(), (w * x).sum(), (w * y).sum()
    sxx, sxy = (w * x * x).sum(), (w * x * y).sum()
    denom = sw * sxx - sx**2
    slope = (sw * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / sw
    resid = y - (intercept + slope * x)
    dof = d.size - 2
    s2 = float((w * resid**2).sum() / dof) if dof > 0 else 0.0
    slope_se = float(np.sqrt(max(s2 * sw / denom, 0.0)))
    return RateFit(float(slope), (float(slope - 2 * slope_se), float(slope + 2 * slope_se)), slope_se)


def weak_rate_experiment(exp: RateExperiment) -> WeakErrorReport:
    """All rungs, signal filtering, and the fitted log-log rate.

    Rungs whose bias is statistically indistinguishable from zero are
    excluded from the fit; fewer than three surviving rungs flags
    insufficient signal instead of fitting noise.
    """
    rungs = [coupled_bias(exp, k) for k in range(len(exp.deltas))]
    signal = [r for r in rungs if abs(r.bias) > 4.0 * r.std_error]
    if isinstance(exp.reference, FineGridReference):
        note = (
            f"fine-grid Euler reference, factor {exp.reference.factor}; every rung carries "
            f"the same O(delta/{exp.reference.factor}) reference bias"
        )
    else:
        note = "closed-form reference; no reference bias"
    if len(signal) < 3:
        return WeakErrorReport(rungs, None, None, len(signal), note, status="insufficient-signal")
    fitres = fit_rate(
        [r.delta for r in signal], [r.bias for r in signal], [r.std_error for r in signal]
    )
    return WeakErrorReport(rungs, fitres.rate, fitres.ci, len(signal), note)


def covariance_bias(
    model: SdeModel,
    t1: float,
    t2: float,
    grid: TimeGrid,
    n_samples: int,
    seed: SeedSpec,
    batch_size: int = 1 << 17,
    threads: int = 1,
) -> BiasPoint:
    """Sample covariance of (Y(t1), Y(t2)) minus the exact OU covariance.

    Y is evaluated by linear interpolation between scheme nodes.  The
    standard error comes from batch means, so the batch layout is part of
    the estimator definition (and is independent of the thread count).
    """
    if model.name != "ou" or not model.params:
        raise InvalidArgumentError("covariance bias is defined against the OU closed form")
    lo, hi = sorted((float(t1), float(t2)))
    exact = ou_exact_moments(
        model.params["theta"], model.params["sigma"], model.params["xi0"], lo, hi
    ).cov
    layout = batch_layout(n_samples, min(batch_size, max(2, n_samples // 32)))

    def worker(bi: int):
        off, m = layout[bi]
        rng = seed.rng(_TAG_COV, bi)
        a, b = _at_times(model, grid, m, _gaussian_rows(rng, grid, m), [t1, t2]).T
        keep = np.isfinite(a) & np.isfinite(b)
        a, b = a[keep], b[keep]
        return (float(np.cov(a, b, ddof=1)[0, 1]) if a.size >= 2 else np.nan), a.size

    parts = deterministic_batch_map(worker, len(layout), threads)
    covs = Moments.of([cov for cov, _ in parts])
    kept = sum(size for _, size in parts)
    if covs.n < 2:
        raise InvalidArgumentError("too few complete batches for a covariance estimate")
    bias = float(covs.mean - exact)
    return BiasPoint(float(grid.mesh), kept, bias, float(covs.se), n_samples - kept)


@dataclass
class GapStatsReport:
    """Statistics of the stochastic-interpolation gap X~ - Y."""

    delta: float
    n_samples: int
    probe_times: np.ndarray
    probe_mean: np.ndarray
    probe_se: np.ndarray
    sup4_over_delta2: float
    sup4_se_over_delta2: float
    pairing_mean: Optional[float] = None
    pairing_se: Optional[float] = None

    @property
    def probes_pass(self) -> bool:
        return _within(self.probe_mean, 4.0 * self.probe_se + 1e-300)

    @property
    def pairing_pass(self) -> Optional[bool]:
        if self.pairing_mean is None:
            return None
        return _within(self.pairing_mean, 4.0 * self.pairing_se + 1e-300)


def interpolation_gap_stats(
    model: SdeModel,
    grid: TimeGrid,
    fine: TimeGrid,
    n_samples: int,
    seed: SeedSpec,
    functional: Optional[PathFunctional] = None,
    n_probes: int = 16,
    threads: int = 1,
) -> GapStatsReport:
    """Nodewise mean, fourth-moment and pairing statistics of X~ - Y.

    The gap has mean zero at every fine node and is independent of Y, and
    E sup^4 |X~ - Y| is O(delta^2); the report normalizes by delta^2 for
    direct comparison with that bound.  One accumulator holds the probe
    columns, then sup^4, then the pairing; a sample with any non-finite
    statistic is excluded.
    """
    if not fine.is_refinement_of(grid):
        raise InvalidArgumentError("fine grid must refine the scheme grid")
    factor = fine.n_intervals // grid.n_intervals
    n_fine = fine.n_intervals
    probe_idx = np.unique(np.round(np.linspace(1, n_fine - 1, n_probes)).astype(int))
    layout = batch_layout(n_samples, _GAP_BATCH)
    delta = grid.mesh

    def worker(bi: int):
        off, m = layout[bi]
        rng = seed.rng(_TAG_GAP, bi)
        dw_fine = _draw_dw(fine, 0, m, rng)
        w = np.concatenate([np.zeros((m, 1)), np.cumsum(dw_fine, axis=1)], axis=1)
        dw = dw_fine.reshape(m, grid.n_intervals, factor).sum(axis=2)
        y = euler_values_batch(model, grid, dw)
        x_tilde = stochastic_interpolation_batch(model, grid, fine, y, w)
        y_interp = interpolate_values(grid.nodes, y, fine.nodes)
        gap = x_tilde - y_interp
        cols = [gap[:, probe_idx], np.abs(gap).max(axis=1)[:, None] ** 4]
        if functional is not None:
            cols.append(_fd1_batch(functional, None, fine, y_interp, gap)[:, None])
        return Moments.of(np.hstack(cols))

    mom = reduce(operator.add, deterministic_batch_map(worker, len(layout), threads))
    mean, se = mom.mean, mom.se
    k = probe_idx.size
    report = GapStatsReport(
        delta=float(delta),
        n_samples=mom.n,
        probe_times=fine.nodes[probe_idx],
        probe_mean=mean[:k],
        probe_se=se[:k],
        sup4_over_delta2=float(mean[k] / delta**2),
        sup4_se_over_delta2=float(se[k] / delta**2),
    )
    if functional is not None:
        report.pairing_mean = float(mean[k + 1])
        report.pairing_se = float(se[k + 1])
    return report
