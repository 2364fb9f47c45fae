"""Path-dependent test functionals f: C([0, T]) -> R with analytic first and
second derivatives, evaluated on batches of paths.

A functional is a set of batch hooks, and every estimator evaluates f only
through them.  Functionals that read the path at a few times carry
``probe_times`` with ``probe_eval(v)``, ``probe_d1(v, h)`` and
``probe_d2(v, h1, h2)``, where the last axis of each argument holds the path
values at those times.  Functionals of the whole path carry
``batch_eval(v, grid)``, ``batch_d1(v, h, grid)`` and
``batch_d2(v, h1, h2, grid)`` on rows of node values.  ``*_d1`` is the
directional derivative of ``*_eval`` at v in direction h and ``*_d2`` the
symmetric second derivative; the paper's weak-error formula needs f twice
differentiable, and ``*_d2`` is the closed form that certifies it for the
shipped functionals.  Every hook is row-wise: a row's result does not depend
on the rows batched with it beyond rounding (see ``trapezoid``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core_paths import TimeGrid
from .errors import InvalidArgumentError

__all__ = [
    "PathFunctional",
    "product_functional",
    "point_functional",
    "integral_functional",
    "smooth_max_functional",
    "trapezoid_weights",
    "trapezoid",
]


@dataclass(frozen=True)
class PathFunctional:
    """One complete hook set: ``probe_times`` with the three ``probe_*``
    hooks, or the three ``batch_*`` hooks, never a mix."""

    name: str
    # reads only these times; None means the whole path matters
    probe_times: Optional[tuple[float, ...]] = None
    probe_eval: Optional[Callable[[np.ndarray], np.ndarray]] = None
    probe_d1: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    probe_d2: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None
    batch_eval: Optional[Callable[[np.ndarray, TimeGrid], np.ndarray]] = None
    batch_d1: Optional[Callable[[np.ndarray, np.ndarray, TimeGrid], np.ndarray]] = None
    batch_d2: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray, TimeGrid], np.ndarray]] = None

    def __post_init__(self):
        probe = [
            h is not None for h in (self.probe_times, self.probe_eval, self.probe_d1, self.probe_d2)
        ]
        batch = [h is not None for h in (self.batch_eval, self.batch_d1, self.batch_d2)]
        if not (all(probe) and not any(batch) or all(batch) and not any(probe)):
            raise InvalidArgumentError(
                f"functional {self.name!r} needs exactly one complete set of probe or batch hooks"
            )


def trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    """Weights w with w @ y the trapezoid rule for samples y on ``nodes``:
    w_0 = d_0/2, w_i = (d_{i-1} + d_i)/2, w_n = d_{n-1}/2 with d = diff(nodes)."""
    d = np.diff(nodes)
    return 0.5 * (np.append(d, 0.0) + np.insert(d, 0, 0.0))


def trapezoid(y: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Trapezoid rule along the last axis of ``y``, one contraction with
    ``trapezoid_weights(nodes)``.  Step-major rows, the package's one path
    layout, are summed in node order, the same for every batch of two or
    more rows; a one-row batch is summed by another loop, which agrees to
    rounding."""
    return np.einsum("...j,j->...", y, trapezoid_weights(nodes))


def _check_time(t: float):
    if not np.isfinite(t) or t < 0.0:
        raise InvalidArgumentError(f"functional time must be >= 0, got {t!r}")


def product_functional(t1: float, t2: float) -> PathFunctional:
    """f(x) = x(t1) x(t2); the covariance-type test functional."""
    _check_time(t1)
    _check_time(t2)
    return PathFunctional(
        name=f"product({t1},{t2})",
        probe_times=(float(t1), float(t2)),
        probe_eval=lambda v: v[..., 0] * v[..., 1],
        probe_d1=lambda v, h: h[..., 0] * v[..., 1] + v[..., 0] * h[..., 1],
        probe_d2=lambda v, h1, h2: h1[..., 0] * h2[..., 1] + h2[..., 0] * h1[..., 1],
    )


def point_functional(t1: float) -> PathFunctional:
    """f(x) = x(t1)."""
    _check_time(t1)
    return PathFunctional(
        name=f"point({t1})",
        probe_times=(float(t1),),
        probe_eval=lambda v: v[..., 0],
        probe_d1=lambda v, h: h[..., 0],
        probe_d2=lambda v, h1, h2: np.zeros_like(v[..., 0]),
    )


def integral_functional(
    g: Callable[[np.ndarray], np.ndarray],
    dg: Callable[[np.ndarray], np.ndarray],
    d2g: Callable[[np.ndarray], np.ndarray],
    name: str = "integral",
) -> PathFunctional:
    """f(x) = int_0^T g(x(t)) dt by the trapezoid rule on the path's grid.

    ``g`` must be smooth with derivatives up to order four; only g' and g''
    are evaluated here (for batch_d1 and batch_d2), the rest certify
    smoothness.
    """

    def _batch_eval(v: np.ndarray, grid: TimeGrid) -> np.ndarray:
        return trapezoid(g(v), grid.nodes)

    def _batch_d1(v, hv, grid: TimeGrid) -> np.ndarray:
        return trapezoid(dg(v) * hv, grid.nodes)

    def _batch_d2(v, h1, h2, grid: TimeGrid) -> np.ndarray:
        return trapezoid(d2g(v) * h1 * h2, grid.nodes)

    return PathFunctional(
        name=name,
        batch_eval=_batch_eval,
        batch_d1=_batch_d1,
        batch_d2=_batch_d2,
    )


def smooth_max_functional(beta: float) -> PathFunctional:
    """Smooth surrogate of the running maximum:

        f(x) = beta^{-1} log( (1/T) int_0^T exp(beta x(t)) dt ).

    Always <= sup |x| and increasing to the maximum as beta grows; beta must
    be finite and positive.  The log-mean-exp and the exp(beta x) weights are
    evaluated in shifted form (exponents <= 0), so both stay finite for
    every finite path.
    """
    if not 0 < beta < np.inf:
        raise InvalidArgumentError(f"beta must be finite and positive, got {beta!r}")
    bf = float(beta)

    def _batch_eval(v: np.ndarray, grid: TimeGrid) -> np.ndarray:
        m = v.max(axis=-1, keepdims=True)
        t_span = grid.horizon
        integral = trapezoid(np.exp(bf * (v - m)), grid.nodes)
        return m[..., 0] + np.log(integral / t_span) / bf

    def _weighted(v: np.ndarray, payload: np.ndarray, grid: TimeGrid) -> np.ndarray:
        # weighted trapezoid mean of payload, weights exp(beta x): f's batch_d1
        m = v.max(axis=-1, keepdims=True)
        w = np.exp(bf * (v - m))
        num = trapezoid(w * payload, grid.nodes)
        den = trapezoid(w, grid.nodes)
        return num / den

    def _batch_d2(v, h1, h2, grid: TimeGrid) -> np.ndarray:
        # beta times the weighted covariance of h1 and h2
        both = _weighted(v, h1 * h2, grid)
        return bf * (both - _weighted(v, h1, grid) * _weighted(v, h2, grid))

    return PathFunctional(
        name=f"smooth_max({beta})",
        batch_eval=_batch_eval,
        batch_d1=_weighted,
        batch_d2=_batch_d2,
    )
