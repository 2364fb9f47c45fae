"""Euler-Maruyama value recursion and its two interpolations.

``Y`` is the piecewise-linear interpolation of the node values

    Y(tau_{n+1}) = Y(tau_n) + b(Y(tau_n)) (tau_{n+1} - tau_n)
                 + sigma(Y(tau_n)) (W(tau_{n+1}) - W(tau_n)),

and ``X~`` is the stochastic interpolation that continues each node with the
coefficients frozen there:

    X~(t) = Y(tau_n) + b(Y(tau_n)) (t - tau_n) + sigma(Y(tau_n)) (W(t) - W(tau_n))

for t in [tau_n, tau_{n+1}].  Both coincide with Y at the scheme nodes
exactly.  A strong solution X is stood in for by Euler on a much finer
nested grid driven by the same Brownian path.

:func:`euler_scan` is the one implementation of the recursion: every scheme
path, fine-grid reference and nested continuation in the package is computed
by it, step-major over an (n_samples,) row of values, and it stores the
paths step-major too (one contiguous row per kept node).  The first-variation
recursion of :func:`variation_values_batch` is multiplicative and kept apart.
"""

from __future__ import annotations

import numpy as np

from .core_paths import TimeGrid
from .errors import InvalidArgumentError
from .models import SdeModel

__all__ = [
    "euler_scan",
    "euler_values_batch",
    "variation_values_batch",
    "stochastic_interpolation_batch",
]


def euler_scan(
    model: SdeModel, grid: TimeGrid, x0, dw, start: int = 0, keep=None, out=None
) -> np.ndarray:
    """The Euler recursion from node ``start`` to the last node of ``grid``.

    ``x0`` holds the values at node ``start``: one per row, or a scalar when
    ``dw`` is an array.  ``dw`` supplies the Brownian increments of steps
    ``start``..N-1, either as an (m, N - start) array or as a callable
    returning the contiguous (m,) row of step k, which lets multi-million-row
    batches draw one row per step instead of holding every increment.
    ``keep`` lists the node columns to return (default ``start``..N); it must
    be a strictly increasing sequence of integers in [start, N].

    The result is (m, len(keep)), stored step-major: it is the transpose of
    a C-contiguous (len(keep), m) buffer that receives one contiguous row
    per kept node, so its columns, not its rows, are contiguous.  ``out``,
    when given, is that buffer, so a caller can hold one across scans.
    Row reductions whose bits must not depend on memory layout read
    C-ordered rows: the nested estimators copy each continuation into a
    C-ordered buffer they hold, and ``_feps_batch`` copies any other
    step-major input.  Non-finite values propagate; nothing is checked
    here.

    Each step runs the model's fused step (:class:`~weakpathlab.models.EulerStep`)
    while ``model.b`` and ``model.sigma`` are the evaluators it was built from,
    else the generic step from ``b`` and ``sigma``; both give the same bits.
    """
    dt = np.diff(grid.nodes)
    cols = range(start, dt.size + 1) if keep is None else _checked_keep(keep, start, dt.size)
    increments = map(dw, range(start, dt.size)) if callable(dw) else iter(dw.T)
    slot = {c: j for j, c in enumerate(cols)}
    if out is None:
        out = np.empty((len(slot), np.shape(x0)[0] if np.ndim(x0) else dw.shape[0]))
    scratch = np.empty(out.shape[1])  # the current row while its node is not kept
    scratch[...] = x0
    x = scratch
    if start in slot:
        out[slot[start]] = x
    step = _step(model, out.shape[1])
    fetch = increments.__next__
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(start, dt.size):
            j = slot.get(k + 1)
            dest = scratch if j is None else out[j]
            step(x, dt[k], fetch, dest)
            x = dest
    return out.T


def _step(model: SdeModel, m: int):
    """The step ``euler_scan`` runs for ``model`` on rows of m values: the
    model's fused step while its ``b`` and ``sigma`` are the evaluators that
    step was built from, else the generic step."""
    fused = model.euler_step
    if fused is not None and fused.b is model.b and fused.sigma is model.sigma:
        return fused.make(m)
    return _generic_step(model.b, model.sigma)


def _generic_step(b, sigma):
    """out = (x + b(x) dt) + sigma(x) dw(), for any evaluators.  The
    increment row is fetched last, so a drawn row lives only for its
    product."""

    def step(x, dt, dw, out):
        drift = b(x) * dt
        diffusion = sigma(x) * dw()
        np.add(x, drift, out=out)
        out += diffusion

    return step


def _checked_keep(keep, start: int, last: int) -> list:
    """``keep`` as a list of ints, which must increase strictly within
    [start, last]."""
    cols = np.asarray(keep)
    if cols.ndim != 1 or (cols.size and cols.dtype.kind not in "iu"):
        raise InvalidArgumentError(f"keep must be a 1-D sequence of integers, got {keep!r}")
    if cols.size and (cols[0] < start or cols[-1] > last or np.any(np.diff(cols) <= 0)):
        raise InvalidArgumentError(
            f"keep must increase strictly within [{start}, {last}], got {keep!r}"
        )
    return cols.tolist()


def euler_values_batch(model: SdeModel, grid: TimeGrid, dw: np.ndarray) -> np.ndarray:
    """Vectorized Euler over samples: dw is (m, N), output is (m, N+1).

    Non-finite values propagate to the final column, where callers read off
    the exclusion mask; no per-step check is made here.
    """
    return euler_scan(model, grid, model.xi0, dw)


def variation_values_batch(
    model: SdeModel, base: np.ndarray, grid: TimeGrid, dw: np.ndarray, start: int = 0
) -> np.ndarray:
    """First-variation recursion along given base paths.

    dZ = b'(X) Z dt + sigma'(X) Z dW with Z = 1 at node ``start``; columns
    before ``start`` are filled with 1.  ``base`` and the output share shape
    (m, N+1).
    """
    dt = np.diff(grid.nodes)
    out = np.ones_like(base)
    z = out[:, start].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(start, dt.size):
            xk = base[:, k]
            z = z * (1.0 + model.db(xk) * dt[k] + model.dsigma(xk) * dw[:, k])
            out[:, k + 1] = z
    return out


def stochastic_interpolation_batch(
    model: SdeModel,
    coarse: TimeGrid,
    fine: TimeGrid,
    y: np.ndarray,
    w: np.ndarray,
) -> np.ndarray:
    """X~ sampled at the fine nodes for a batch of coupled (Y, W) samples.

    ``y`` is (m, N+1) on the coarse grid, ``w`` is (m, n_fine+1) on the fine
    grid with matching coarse restriction.  Scheme-node columns are copied
    from ``y`` so nodal agreement is exact.
    """
    coarse_idx = fine.indices_of_subgrid(coarse)
    t = fine.nodes
    anchors = np.searchsorted(coarse.nodes, t[1:], side="left") - 1
    b_nodes = model.b(y)
    s_nodes = model.sigma(y)
    y_anchor = y[:, anchors]
    out = np.empty_like(w)
    out[:, 0] = y[:, 0]
    out[:, 1:] = (
        y_anchor
        + b_nodes[:, anchors] * (t[1:] - coarse.nodes[anchors])
        + s_nodes[:, anchors] * (w[:, 1:] - w[:, coarse_idx[anchors]])
    )
    out[:, coarse_idx] = y
    return out

