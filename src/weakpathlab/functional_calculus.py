"""Nested Monte-Carlo estimators for the conditional functional

    F_t(x) = E f_eps(X^{t,x} on [0,T])

where X^{t,x} keeps the frozen prefix x on [0, t) and continues from x(t) as
a fresh solution path (realized by Euler on the experiment's fine grid), and
f_eps = f o M_eps is the mollified functional.

Every estimator draws its inner samples through one stencil,
:func:`_stencil`: Euler from the prefix's endpoint moved by each of a few
offsets, over one shared set of increments, glued onto the prefix and
evaluated by the one batch evaluator of f o M_eps.  ``estimate_F`` takes the
offsets (0,), the first vertical derivative (+h, -h) and the second
(+h, 0, -h); the horizontal derivative and the consistency checks build on
the same stencil.  The checks take their derivative samples from the same two
difference rules as the public estimators: :func:`_bump_differences` and
:func:`_flat_extension`.  At t = T the continuation has zero steps: one row
of increments with no columns, so each sample is f_eps of the prefix with
its endpoint moved, and the estimate is that number with no inner samples.
Each estimator call holds one :class:`_Workspace` for all its offsets and
outer batches: the increments are drawn into it, and its step-major paths
hold the prefix rows, written once, and each continuation, scanned in
after them, so a batch allocates no path-sized array.
Vertical derivatives are common-random-number central differences over
endpoint bumps, cross-checked by pairing f's directional derivative with a
simulated first-variation path (at t = T, the endpoint indicator).  The
horizontal derivative is a forward difference over a flat time extension
with time-aligned noise.  On top of these sit numerical verifications of
the martingale property, the backward Kolmogorov equation, the functional
Ito formula for x(t)^2, and the two sides of the weak-error representation
identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core_paths import DiscretePath, PathMode, TimeGrid, interpolate_values, refine_grid
from .blas import one_thread
from .errors import (
    BudgetExceededError,
    InsufficientSignalError,
    InvalidArgumentError,
    NumericalOverflowError,
    OutOfRangeError,
)
from .functionals import PathFunctional
from .models import SdeModel
from .mollifier import CACHE_CAPACITY, BandRows, MollifierSpec, band_tiles, mollify_operator
from .parallel import Moments, batch_layout
from .randomness import SeedSpec
from .schemes import (
    euler_scan,
    euler_values_batch,
    stochastic_interpolation_batch,
    variation_values_batch,
)

__all__ = [
    "NestedEstimate",
    "ResidualReport",
    "VerticalDerivative",
    "ErrorRepresentationReport",
    "estimate_F",
    "vertical_derivative",
    "second_vertical_derivative",
    "horizontal_derivative",
    "kolmogorov_residual",
    "martingale_gap",
    "ito_rms_study",
    "error_representation_sides",
    "default_bump",
]

# bytes of raw rows per mollified row block in _feps_batch; 4096 x 2049
# gemm rows run fastest in blocks of 1024-2048 rows
_BLOCK_BYTES = 1 << 24

# purpose tags for stream derivation
_TAG_CONTINUATION = 3
_TAG_OUTER = 4
_TAG_INNER = 5
_TAG_QUAD = 6

# outer paths per martingale_gap batch and samples per ito_rms_study batch;
# both fix the batch layout, and so the streams drawn
_MARTINGALE_CHUNK = 32
_ITO_BATCH = 65536


@dataclass(frozen=True)
class NestedEstimate:
    value: float
    std_error: float
    inner_samples: int


@dataclass(frozen=True)
class ResidualReport:
    residual: float
    tolerance: float
    passed: bool
    components: dict

    @staticmethod
    def make(residual: float, tolerance: float, components: dict) -> "ResidualReport":
        return ResidualReport(
            residual=float(residual),
            tolerance=float(tolerance),
            passed=_within(residual, tolerance),
            components=components,
        )


@dataclass(frozen=True)
class VerticalDerivative:
    """Bump-difference estimate plus the first-variation pairing estimate."""

    central: NestedEstimate
    pairing: NestedEstimate


def default_bump(x_end: float) -> float:
    return 1e-2 * (1.0 + abs(x_end))


def _within(value, tolerance) -> bool:
    """|value| <= tolerance everywhere; a non-finite value or tolerance fails."""
    value, tolerance = np.asarray(value), np.asarray(tolerance)
    return bool(np.all(np.isfinite(value) & np.isfinite(tolerance) & (np.abs(value) <= tolerance)))


# ---------------------------------------------------------------------------
# mollified functional evaluation on batches of node-value matrices


def _probe_times(grid: TimeGrid, times) -> np.ndarray:
    t = np.asarray(times, dtype=np.float64)
    if np.any(t < 0.0) or np.any(t > grid.horizon):
        raise OutOfRangeError(f"probe times {times!r} outside [0, {grid.horizon}]")
    return t


def _probe_rows(spec: MollifierSpec, grid: TimeGrid, probes: tuple[float, ...]) -> np.ndarray:
    """Rows r_t with r_t . v = (M x)(t) for node values v; one row per probe.

    The mollified path is continuous, so probe times between nodes combine
    the two bracketing rows of the mollifier matrix affinely.
    """
    return _build_probe_rows(grid.nodes.tobytes(), spec, probes)


@lru_cache(maxsize=CACHE_CAPACITY)
def _build_probe_rows(nodes: bytes, spec: MollifierSpec, probes: tuple[float, ...]) -> np.ndarray:
    grid = TimeGrid(np.frombuffer(nodes))
    a = mollify_operator(spec, grid, PathMode.LINEAR)
    rows = np.ascontiguousarray(interpolate_values(grid.nodes, a.T, probes).T)
    rows.flags.writeable = False
    return rows


def _at_probes(f: PathFunctional, spec: MollifierSpec | None, grid: TimeGrid, values) -> np.ndarray:
    """(M x)(t) at f's probe times for every row of ``values``; x(t) when
    spec is None."""
    t = _probe_times(grid, f.probe_times)
    if spec is None:
        return interpolate_values(grid.nodes, values, t)
    return values @ _probe_rows(spec, grid, f.probe_times).T


def _feps_batch(
    f: PathFunctional,
    spec: MollifierSpec | None,
    grid: TimeGrid,
    values: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """f(M x) for every row of ``values``; f(x) when spec is None.

    ``values`` are read as they are, step-major rows from ``euler_scan``
    included, and the mollified rows are step-major (see ``BandRows``).
    ``out``, when given, is a C-contiguous buffer of as many values as
    ``values`` that receives the mollified rows, one row block at a time.
    """
    if f.probe_times is not None:
        return f.probe_eval(_at_probes(f, spec, grid, values))
    if spec is None:
        return f.batch_eval(values, grid)
    # near-equal row blocks of at most _BLOCK_BYTES, one at a time (the hook
    # is row-wise); neither a block's raw rows nor, once the hook returns, its
    # mollified rows are held here: held past the append, they raised the
    # fine-grid peak RSS by 0.9 MiB (numpy's traced peak did not move)
    mollified = _mollifier(spec, grid)
    rows = max(1, _BLOCK_BYTES // (values.itemsize * values.shape[-1]))
    blocks = np.array_split(values, -(-len(values) // rows))
    del values
    evals = []
    while blocks:
        into = None if out is None else out[: blocks[0].size]
        evals.append(f.batch_eval(mollified(blocks.pop(0), into), grid))
    return np.concatenate(evals)


def _fd1_batch(
    f: PathFunctional,
    spec: MollifierSpec | None,
    grid: TimeGrid,
    values: np.ndarray,
    directions: np.ndarray,
) -> np.ndarray:
    """Df(M x)(M h) rowwise (mollification is linear, so it commutes into
    the direction)."""
    if f.probe_times is not None:
        return f.probe_d1(_at_probes(f, spec, grid, values), _at_probes(f, spec, grid, directions))
    if spec is not None:
        mollified = _mollifier(spec, grid)
        values, directions = mollified(values), mollified(directions)
    return f.batch_d1(values, directions, grid)


def _reads_after(f: PathFunctional, spec: MollifierSpec | None, grid: TimeGrid, i: int) -> bool:
    """Whether f_eps reads any node after node i, from the last nonzero
    column of the operator or, as every weight is nonnegative, from f's
    probes of the indicator of the nodes after i."""
    if f.probe_times is not None:
        return bool(_at_probes(f, spec, grid, (np.arange(grid.nodes.size) > i) * 1.0).any())
    if spec is None:
        return i < grid.n_intervals
    return bool(mollify_operator(spec, grid, PathMode.LINEAR)[:, i + 1 :].any())


def _mollifier(spec: MollifierSpec, grid: TimeGrid):
    """The map from rows of node values to rows of M_eps values on ``grid``:
    the operator, looked up once, applied by band tiles, into ``out`` when
    given (see ``BandRows``)."""
    at = mollify_operator(spec, grid, PathMode.LINEAR).T
    tiles = band_tiles(spec, grid)
    return lambda values, out=None: BandRows(values, tiles, out) @ at


# ---------------------------------------------------------------------------
# prefix / continuation plumbing


def _prefix_index(prefix: DiscretePath, fine: TimeGrid) -> int:
    k = prefix.grid.nodes.size - 1
    if k >= fine.nodes.size or not np.array_equal(prefix.grid.nodes, fine.nodes[: k + 1]):
        raise InvalidArgumentError("prefix grid must be the fine grid restricted to [0, t]")
    return k


class _Workspace:
    """The buffers of one estimator call on the fine grid, for m paths,
    reused by all its offsets and outer batches:
    - ``draw`` fills a held (m, n_steps) array with scaled increments;
    - ``scan`` holds the m paths step-major, one (m,) row per node:
      ``hold`` writes the prefix rows once, and ``_continue`` scans each
      continuation into the rows after them;
    - ``out`` is a flat buffer of m (N+1) values for the mollified rows.
    Every call builds its own, so calls in other threads share none.
    """

    def __init__(self, fine: TimeGrid, m: int):
        n = fine.nodes.size
        self.fine = fine
        self.m = m
        self._dw = np.empty(m * (n - 1))
        self.scan = np.empty((n, m))
        self.out = np.empty(n * m)

    def draw(self, rng: np.random.Generator, i_t: int) -> np.ndarray:
        """``_draw_dw`` of the m paths from node i_t, into the held buffer."""
        return _draw_dw(self.fine, i_t, self.m, rng, self._dw)

    def hold(self, prefix_values: np.ndarray) -> None:
        """Write rows [:i] of ``scan``, i the prefix's last node (the
        continuations start there).  ``prefix_values`` is shared (i+1,), or
        (k, i+1) with each row held by m / k consecutive paths."""
        rows = np.reshape(prefix_values, (-1, prefix_values.shape[-1]))[:, :-1].T  # (i, k)
        self.scan[: len(rows)].reshape(*rows.shape, self.m // rows.shape[1])[...] = rows[:, :, None]


def _continue(model: SdeModel, fine: TimeGrid, ws: _Workspace, x0, dw: np.ndarray) -> np.ndarray:
    """The paths of ``ws`` continued from node i = N - (columns of ``dw``)
    by Euler from ``x0`` (shared, or one value per path) over the
    increments ``dw`` of steps i..N-1: the (m, N+1) view ``ws.scan.T``,
    whose rows before i keep what the caller wrote there."""
    start = fine.n_intervals - dw.shape[1]
    euler_scan(model, fine, x0, dw, start=start, out=ws.scan[start:])
    return ws.scan.T


def _stencil(
    model: SdeModel,
    f: PathFunctional,
    spec: MollifierSpec | None,
    fine: TimeGrid,
    ws: _Workspace,
    x0,
    offsets,
    dw: np.ndarray,
) -> list[np.ndarray]:
    """f_eps of the paths of ``ws`` continued from ``x0`` moved by each of
    ``offsets``: one array per offset, one sample per row of ``dw``.

    Every f_eps sample of a continued path in this module comes from here.
    The offsets share ``dw``, so differences of the arrays are the
    common-random-number bump differences of the estimators.  The
    continuation starts at node i = N - (columns of ``dw``), and rows
    [:i] of ``ws.scan`` must hold the prefix; with no columns in ``dw``
    (t = T) each path is the prefix with its endpoint moved.
    """
    return [
        _feps_batch(f, spec, fine, _continue(model, fine, ws, x0 + o, dw), ws.out)
        for o in offsets
    ]


def _bump_differences(
    model: SdeModel, f: PathFunctional, spec: MollifierSpec | None, fine: TimeGrid,
    ws: _Workspace, x0, h: float, dw: np.ndarray, second: bool,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Per-sample central differences of f_eps over endpoint bumps, from
    one ``_stencil`` call over (h, -h), or (h, 0, -h) with ``second``: the
    first (up - down) / 2h, then (up - 2 mid + down) / h^2 and the unbumped
    samples mid with ``second``, else None and None."""
    offsets = (h, 0.0, -h) if second else (h, -h)
    up, *mid, down = _stencil(model, f, spec, fine, ws, x0, offsets, dw)
    first = (up - down) / (2 * h)
    if not second:
        return first, None, None
    return first, (up - 2 * mid[0] + down) / h**2, mid[0]


def _flat_extension(
    model: SdeModel, f: PathFunctional, spec: MollifierSpec | None, fine: TimeGrid,
    ws: _Workspace, x0, base: np.ndarray, dw: np.ndarray, i_t: int, i_ext: int,
) -> np.ndarray:
    """Per-sample forward time differences (f_ext - base) / (t_ext - t):
    the paths of ``ws`` stay at ``x0`` on nodes i_t..i_ext (written into
    ``ws.scan``) and continue after t_ext over the increments of ``dw``
    that follow, so f_ext shares the noise of ``base``, drawn from t."""
    ws.scan[i_t:i_ext] = x0
    (ext,) = _stencil(model, f, spec, fine, ws, x0, (0.0,), dw[:, i_ext - i_t :])
    return (ext - base) / (fine.nodes[i_ext] - fine.nodes[i_t])


def _draw_dw(
    fine: TimeGrid, i_t: int, n: int, rng: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """Brownian increments of fine steps i_t..N-1 for n paths, an (n, N - i_t)
    array: standard normals in row order, scaled in place by sqrt(dt).  With
    ``out``, a flat buffer of at least that size, they fill its front."""
    scale = np.sqrt(np.diff(fine.nodes)[i_t:])
    shape = (n, scale.size)
    dw = np.empty(shape) if out is None else out[: n * scale.size].reshape(shape)
    rng.standard_normal(out=dw)
    dw *= scale
    return dw


def _inner(
    prefix: DiscretePath, fine: TimeGrid, eps, n_inner: int, seed: SeedSpec
) -> tuple[MollifierSpec | None, int, _Workspace, np.ndarray]:
    """The set-up of a public estimator: the mollifier spec, the prefix's
    last node i_t on ``fine``, the workspace holding the prefix, and the
    continuation increments: ``n_inner`` rows, or at t = T one row with no
    columns, whose continuation is the prefix itself."""
    spec = _spec(eps)
    i_t = _prefix_index(prefix, fine)
    ws = _Workspace(fine, n_inner if i_t < fine.n_intervals else 1)
    ws.hold(prefix.values)
    return spec, i_t, ws, ws.draw(seed.rng(_TAG_CONTINUATION), i_t)


def _mean_se(samples: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of 1-D samples; a non-finite sample raises."""
    mom = Moments.of(samples)
    if mom.excluded:
        raise NumericalOverflowError("continuation produced non-finite functional values")
    return float(mom.mean), float(mom.se)


def _estimate(samples: np.ndarray, dw: np.ndarray) -> NestedEstimate:
    """The mean of ``samples`` with its SE; a continuation over no steps
    (t = T) counts no inner samples."""
    mean, se = _mean_se(samples)
    return NestedEstimate(mean, se, len(dw) if dw.shape[1] else 0)


def _checked_bump(bump) -> float | None:
    """A caller's bump: None (the default bump) or a float, finite and > 0."""
    if bump is not None and not (np.isfinite(bump) and bump > 0):
        raise InvalidArgumentError(f"bump must be finite and positive, got {bump!r}")
    return None if bump is None else float(bump)


def _spec(eps) -> MollifierSpec | None:
    if eps is None:
        return None
    if isinstance(eps, MollifierSpec):
        return eps
    return MollifierSpec(float(eps))


# ---------------------------------------------------------------------------
# the conditional-expectation functional and its derivatives


@one_thread()
def estimate_F(
    model: SdeModel,
    prefix: DiscretePath,
    f: PathFunctional,
    eps,
    n_inner: int,
    seed: SeedSpec,
    fine: TimeGrid,
) -> NestedEstimate:
    """Monte-Carlo estimate of F_t(x) = E f_eps(x on [0,t] + fresh continuation).

    ``prefix`` must live on the restriction of ``fine`` to [0, t]; the
    continuation is Euler on the remaining fine nodes started from x(t).
    At t = T it has no steps, so the value is f_eps(x) with SE 0.
    """
    spec, _, ws, dw = _inner(prefix, fine, eps, n_inner, seed)
    (vals,) = _stencil(model, f, spec, fine, ws, prefix.values[-1], (0.0,), dw)
    return _estimate(vals, dw)


@one_thread()
def vertical_derivative(
    model: SdeModel,
    prefix: DiscretePath,
    f: PathFunctional,
    eps,
    n_inner: int,
    bump: float,
    seed: SeedSpec,
    fine: TimeGrid,
) -> VerticalDerivative:
    """Sensitivity of F_t to a bump of the path's endpoint value.

    Two estimators over the same draws: the central difference
    (F(x+h) - F(x-h)) / 2h over endpoint bumps, and the pairing of Df with
    the simulated first-variation path started at t.  They agree up to
    Monte-Carlo noise and an O(bump^2) difference bias.
    """
    bump = _checked_bump(bump)
    spec, i_t, ws, dw = _inner(prefix, fine, eps, n_inner, seed)
    x0 = prefix.values[-1]
    first, _, _ = _bump_differences(model, f, spec, fine, ws, x0, bump, dw, second=False)
    central = _estimate(first, dw)

    combined = _continue(model, fine, ws, x0, dw)
    # Z = 0 on the prefix and 1 at node i_t: at t = T, the endpoint indicator
    direction = variation_values_batch(model, combined, fine, dw, start=i_t)
    pairing = _estimate(_fd1_batch(f, spec, fine, combined, direction), dw)
    return VerticalDerivative(central, pairing)


@one_thread()
def second_vertical_derivative(
    model: SdeModel,
    prefix: DiscretePath,
    f: PathFunctional,
    eps,
    n_inner: int,
    bump: float,
    seed: SeedSpec,
    fine: TimeGrid,
) -> NestedEstimate:
    """Second central difference (F(x+h) - 2 F(x) + F(x-h)) / h^2 with common
    random numbers; invariant under h -> -h by construction."""
    bump = _checked_bump(bump)
    spec, _, ws, dw = _inner(prefix, fine, eps, n_inner, seed)
    x0 = prefix.values[-1]
    return _estimate(_bump_differences(model, f, spec, fine, ws, x0, bump, dw, second=True)[1], dw)


@one_thread()
def horizontal_derivative(
    model: SdeModel,
    prefix: DiscretePath,
    f: PathFunctional,
    eps,
    n_inner: int,
    h_step: float | None,
    seed: SeedSpec,
    fine: TimeGrid,
) -> NestedEstimate:
    """Forward difference (F_{t+h}(flat extension) - F_t(x)) / h.

    The extension freezes the path at x(t) on (t, t+h]; both estimates share
    per-interval Brownian increments so most of the variance cancels.  ``h``
    must land on a fine node; None selects one fine interval.
    """
    spec, i_t, ws, dw = _inner(prefix, fine, eps, n_inner, seed)
    if i_t >= fine.n_intervals:
        raise OutOfRangeError("t + h exceeds the horizon")
    if h_step is None:
        i_ext = i_t + 1
    else:
        if not h_step > 0:
            raise InvalidArgumentError(f"h_step must be positive, got {h_step!r}")
        target = prefix.grid.horizon + h_step
        if target > fine.horizon * (1 + 1e-12):
            raise OutOfRangeError(f"t + h = {target} exceeds horizon {fine.horizon}")
        i_ext = fine.index_near(target)
        if i_ext <= i_t:
            raise InvalidArgumentError(f"t + h = {target} is not a fine node after t")
    x0 = prefix.values[-1]
    (base,) = _stencil(model, f, spec, fine, ws, x0, (0.0,), dw)
    return _estimate(_flat_extension(model, f, spec, fine, ws, x0, base, dw, i_t, i_ext), dw)


# ---------------------------------------------------------------------------
# consistency checks built on the estimators


@one_thread()
def kolmogorov_residual(
    model: SdeModel,
    prefix: DiscretePath,
    f: PathFunctional,
    eps,
    n_inner: int,
    seed: SeedSpec,
    fine: TimeGrid,
    n_outer: int = 1000,
    bump: float | None = None,
    allowance_rel: float = 0.1,
) -> ResidualReport:
    """Residual of the backward equation  D_t F + b grad F + (1/2) sigma^2 grad^2 F = 0.

    All three derivative estimates share each batch's continuation noise.
    The prefix must start at xi0 (the equation only holds on such paths).
    The tolerance is 4 SE plus an explicit relative allowance for finite
    bump, horizontal step and fine-grid bias; ``bump`` (None:
    ``default_bump``) must be finite and > 0, ``allowance_rel`` finite and >= 0.
    """
    if prefix.values[0] != model.xi0:
        raise InvalidArgumentError(
            f"prefix must start at xi0={model.xi0}; the equation is only valid there"
        )
    bump = _checked_bump(bump)
    if not (np.isfinite(allowance_rel) and allowance_rel >= 0):
        raise InvalidArgumentError(f"allowance_rel must be finite and >= 0, got {allowance_rel!r}")
    spec = _spec(eps)
    i_t = _prefix_index(prefix, fine)
    if i_t >= fine.nodes.size - 1:
        raise OutOfRangeError("the check needs t < T")
    if not _reads_after(f, spec, fine, i_t):
        raise InsufficientSignalError("f_eps reads no node after t, so the residual is 0")
    x0 = float(prefix.values[-1])
    h = default_bump(x0) if bump is None else bump
    b0 = float(model.b(x0))
    s0 = float(model.sigma(x0))
    ws = _Workspace(fine, n_inner)
    ws.hold(prefix.values)

    def _batch(bi: int) -> tuple[float, float, float, float]:
        dw = ws.draw(seed.rng(_TAG_INNER, bi), i_t)
        first, second, mid = _bump_differences(model, f, spec, fine, ws, x0, h, dw, second=True)
        dt = _flat_extension(model, f, spec, fine, ws, x0, mid, dw, i_t, i_t + 1)
        dt_term, grad, second = (_mean_se(d)[0] for d in (dt, first, second))
        resid = dt_term + b0 * grad + 0.5 * s0**2 * second
        return resid, dt_term, grad, second

    rows = np.asarray([_batch(bi) for bi in range(n_outer)])
    (residual, se), (dt_term, _), (grad, _), (second, _) = (_mean_se(c) for c in rows.T)
    grad_term = b0 * grad
    second_term = 0.5 * s0**2 * second
    allowance = allowance_rel * (abs(dt_term) + abs(grad_term) + abs(second_term))
    return ResidualReport.make(
        residual,
        4.0 * se + allowance,
        {
            "horizontal_term": dt_term,
            "drift_term": grad_term,
            "diffusion_term": second_term,
            "grad_F": grad,
            "second_grad_F": second,
            "std_error": se,
            "allowance": allowance,
            "n_outer": int(n_outer),
            "n_inner": int(n_inner),
        },
    )


@one_thread()
def martingale_gap(
    model: SdeModel,
    f: PathFunctional,
    eps,
    times: tuple[float, float],
    n_samples: int,
    seed: SeedSpec,
    fine: TimeGrid,
    n_inner: int = 256,
) -> ResidualReport:
    """E[F_t(X on [0,t]) - F_s(X on [0,s])] along common outer paths.

    Zero in expectation by the tower property (exactly, since outer paths
    and inner continuations use the same fine-grid dynamics); the check is
    |gap| <= 4 SE.
    """
    s, t = float(times[0]), float(times[1])
    if not 0.0 <= s <= t <= fine.horizon:
        raise InvalidArgumentError(f"need 0 <= s <= t <= T, got {times!r}")
    spec = _spec(eps)
    i_s, i_t = fine.index_near(s), fine.index_near(t)
    if i_s == i_t or not _reads_after(f, spec, fine, i_s):
        raise InsufficientSignalError("s and t are one fine node, or f_eps reads none after s")

    gaps, ws = [], None
    for ci, (_, m) in enumerate(batch_layout(n_samples, _MARTINGALE_CHUNK)):
        outer = euler_values_batch(model, fine, _draw_dw(fine, 0, m, seed.rng(_TAG_OUTER, ci)))
        if ws is None or ws.m != m * n_inner:
            ws = _Workspace(fine, m * n_inner)
        dw_in = ws.draw(seed.rng(_TAG_INNER, ci), i_s)
        ws.hold(outer[:, : i_t + 1])

        means = {}
        # t first: the continuation from s then overwrites the rows
        # [i_s, i_t) of the outer paths that the one from t reads
        for i_u in (i_t, i_s):
            x0 = np.repeat(outer[:, i_u], n_inner)
            (fv,) = _stencil(model, f, spec, fine, ws, x0, (0.0,), dw_in[:, i_u - i_s :])
            means[i_u] = fv.reshape(m, n_inner).mean(axis=1)
        gaps.append(means[i_t] - means[i_s])
    gap_samples = np.concatenate(gaps)
    mean, se = _mean_se(gap_samples)
    return ResidualReport.make(
        mean,
        4.0 * se,
        {"s": s, "t": t, "std_error": se, "n_samples": int(n_samples), "n_inner": int(n_inner)},
    )


def ito_rms_study(T: float, steps_list, n_samples: int, seed: SeedSpec) -> dict:
    """RMS of the Ito residual for x(t)^2 across meshes.

    The discrete Ito formula W(T)^2 = sum 2 W(tau_k) dW_k + T holds up to a
    residual equal per path to sum dW_k^2 - T, so the RMS contracts like
    sqrt(2 T delta) under mesh refinement.
    """
    out = {"T": float(T), "meshes": [], "rms": [], "n_samples": int(n_samples)}
    for si, n_steps in enumerate(steps_list):
        dt = T / n_steps
        total = 0.0
        for bi, (_, m) in enumerate(batch_layout(n_samples, _ITO_BATCH)):
            z = seed.rng(_TAG_INNER, si, bi).standard_normal((m, n_steps))
            w = np.cumsum(np.sqrt(dt) * z, axis=1)
            ito_sum = 2.0 * np.sum(np.concatenate([np.zeros((m, 1)), w[:, :-1]], axis=1) * np.sqrt(dt) * z, axis=1)
            resid = w[:, -1] ** 2 - ito_sum - T
            total += float(np.sum(resid**2))
        out["meshes"].append(float(dt))
        out["rms"].append(float(np.sqrt(total / n_samples)))
    out["ratios"] = [
        out["rms"][i] / out["rms"][i + 1] for i in range(len(out["rms"]) - 1)
    ]
    return out


@dataclass(frozen=True)
class ErrorRepresentationReport:
    """The two sides and their difference.  The RHS is the one-step
    randomised quadrature of :func:`error_representation_sides`, so its SE
    holds the quadrature noise too.  The check is |diff| <= 4 SE plus
    ``rounding_floor``, 4 ulps of the mean of |f_eps(X~)| + |f_eps(X)|:
    where both sides vanish, diff is rounding noise whose SE can be 0."""

    lhs: NestedEstimate
    rhs: NestedEstimate
    diff: float
    diff_std_error: float
    rounding_floor: float = 0.0

    @property
    def tolerance(self) -> float:
        return 4.0 * self.diff_std_error + self.rounding_floor

    @property
    def passed(self) -> bool:
        return _within(self.diff, self.tolerance)


@one_thread()
def error_representation_sides(
    model: SdeModel,
    f: PathFunctional,
    eps,
    coarse: TimeGrid,
    n_outer: int,
    n_inner: int,
    seed: SeedSpec,
    fine_factor: int = 64,
    quad_per_interval: int = 4,
    bump: float | None = None,
    inner_cap: int = 200_000_000,
    freeze: bool = True,
) -> ErrorRepresentationReport:
    """Both sides of the weak-error identity for the frozen-coefficient scheme.

    LHS: E[f_eps(X~) - f_eps(X)] with X~ the stochastically interpolated
    scheme and X the fine-grid reference, coupled through one Brownian path
    per outer sample.  RHS: the time integral of

        grad F_t(X~ on [0,t]) (b~ - b)  +  (1/2) grad^2 F_t(X~ on [0,t]) (sigma~^2 - sigma^2)

    in the fine Euler chain's one-step form (see :func:`_one_step`), with the
    derivative factors estimated by nested bump differences along each outer
    path.  Each coarse interval is cut into ``quad_per_interval`` blocks of
    fine steps; one step per block is drawn uniformly from its own stream
    and weighted by the block's length, so the RHS is in expectation the sum
    over every fine step.  For OU with a point or product functional that
    sum equals the LHS exactly, so the check carries no quadrature bias; for
    nonlinear models an O(dt_f) Taylor remainder is left.  The integrand
    vanishes at each interval's left endpoint, where the frozen and true
    coefficients coincide.

    ``freeze=False`` is the degenerate control: the tilde coefficients are
    the instantaneous ones, so the scheme path coincides with the reference
    and both sides vanish identically.  A ``bump`` must be finite and > 0.
    """
    bump = _checked_bump(bump)
    T = coarse.horizon
    n_coarse = coarse.n_intervals
    if T > 0.5 or n_coarse > 4:
        raise InvalidArgumentError(
            f"instance too large (T={T}, N={n_coarse}); the nested cost is cubic in samples"
        )
    if fine_factor % quad_per_interval != 0:
        raise InvalidArgumentError("quad_per_interval must divide fine_factor")
    spec = _spec(eps)
    fine = refine_grid(coarse, fine_factor)
    coarse_idx = fine.indices_of_subgrid(coarse)
    block = fine_factor // quad_per_interval

    configs_per_point = 2 if model.constant_sigma else 3
    projected = n_outer * n_coarse * quad_per_interval * n_inner * configs_per_point
    if projected > inner_cap:
        raise BudgetExceededError(
            f"projected inner samples {projected} exceed cap {inner_cap}"
        )

    lhs_samples = np.empty(n_outer)
    lhs_scale = np.empty(n_outer)
    rhs_samples = np.empty(n_outer)
    ws = _Workspace(fine, n_inner)
    for oi in range(n_outer):
        rng = seed.rng(_TAG_OUTER, oi)
        dw_fine = _draw_dw(fine, 0, 1, rng)
        w_vals = np.concatenate([[0.0], np.cumsum(dw_fine[0])])[None, :]
        dw_coarse = dw_fine.reshape(1, n_coarse, fine_factor).sum(axis=2)
        y = euler_values_batch(model, coarse, dw_coarse)
        x_ref = euler_values_batch(model, fine, dw_fine)
        if freeze:
            x_tilde = stochastic_interpolation_batch(model, coarse, fine, y, w_vals)
        else:
            x_tilde = x_ref
        f_tilde = _feps_batch(f, spec, fine, x_tilde)[0]
        f_ref = _feps_batch(f, spec, fine, x_ref)[0]
        lhs_samples[oi] = f_tilde - f_ref
        lhs_scale[oi] = abs(f_tilde) + abs(f_ref)

        rhs = 0.0
        picks = seed.rng(_TAG_QUAD, oi).integers(block, size=(n_coarse, quad_per_interval))
        for n in range(n_coarse if freeze else 0):
            y_n = float(y[0, n])
            b_frozen = float(model.b(y_n))
            s2_frozen = float(model.sigma(y_n)) ** 2
            for j in range(1, quad_per_interval + 1):
                first = int(coarse_idx[n]) + (j - 1) * block
                k = first + int(picks[n, j - 1])
                end, delta_b, delta_s2 = (
                    float(v) for v in _one_step(model, x_tilde[0], k, b_frozen, s2_frozen, fine)
                )
                if delta_b == 0.0 and delta_s2 == 0.0:
                    continue
                prefix = x_tilde[0, : k + 2].copy()
                prefix[-1] = end
                h = default_bump(end) if bump is None else bump
                grad, second = _grad_pair_at(
                    model, f, spec, fine, ws, prefix,
                    seed.rng(_TAG_INNER, oi, n, j), h, need_second=delta_s2 != 0.0,
                )
                weight = fine.nodes[first + block] - fine.nodes[first]
                rhs += weight * (grad * delta_b + 0.5 * second * delta_s2)
        rhs_samples[oi] = rhs

    lhs_mean, lhs_se = _mean_se(lhs_samples)
    rhs_mean, rhs_se = _mean_se(rhs_samples)
    diff_mean, diff_se = _mean_se(lhs_samples - rhs_samples)
    return ErrorRepresentationReport(
        lhs=NestedEstimate(lhs_mean, lhs_se, int(n_inner)),
        rhs=NestedEstimate(rhs_mean, rhs_se, int(n_inner)),
        diff=diff_mean,
        diff_std_error=diff_se,
        rounding_floor=4 * np.finfo(np.float64).eps * float(np.mean(lhs_scale)),
    )


def _one_step(model: SdeModel, x_tilde: np.ndarray, k: int, b_frozen, s2_frozen, fine: TimeGrid):
    """Fine step k -> k+1 of X~ (rows of ``x_tilde``) against the reference
    Euler step from X~_k over the same increment: ``(end, db, ds2)``.

    ``db`` and ``ds2`` are b~ - b and sigma~^2 - sigma^2 at node k.  ``end``
    is the endpoint at node k+1 at which grad F and grad^2 F are taken:
    X~_{k+1} - db dt / 2, the step taken with the mean of the frozen and the
    true drift.  Where F_{k+1} is quadratic in its endpoint (OU with a
    point or product functional), E[grad F(end) db dt + grad^2 F ds2 dt / 2]
    equals E[F_{k+1}(X~ step) - F_{k+1}(reference step)] exactly; taken at
    X~_{k+1} itself, the grad F term misses grad^2 F db^2 dt^2 / 2.
    """
    dt = fine.nodes[k + 1] - fine.nodes[k]
    xk = x_tilde[..., k]
    delta_b = b_frozen - model.b(xk)
    delta_s2 = s2_frozen - model.sigma(xk) ** 2
    return x_tilde[..., k + 1] - 0.5 * delta_b * dt, delta_b, delta_s2


def _grad_pair_at(
    model: SdeModel, f: PathFunctional, spec: MollifierSpec | None, fine: TimeGrid,
    ws: _Workspace, prefix_values: np.ndarray, rng: np.random.Generator, bump: float,
    need_second: bool,
) -> tuple[float, float]:
    """(grad F, grad^2 F) at a prefix given by raw values, over ``ws.m``
    inner paths: the means of the bump differences of the public
    estimators; grad^2 F is 0 unless ``need_second``."""
    dw = ws.draw(rng, prefix_values.size - 1)
    ws.hold(prefix_values)
    first, second, _ = _bump_differences(
        model, f, spec, fine, ws, prefix_values[-1], bump, dw, need_second
    )
    return _mean_se(first)[0], _mean_se(second)[0] if need_second else 0.0
