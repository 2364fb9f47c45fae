"""Path-dependent test functionals with analytic directional derivatives.

Every shipped functional carries closed-form first and second directional
derivatives; no estimator relies on numerically differentiating ``eval``.
``d1(x, h)`` is the derivative of ``eval`` at x in direction h and
``d2(x, h1, h2)`` the symmetric second derivative.

Point evaluations between grid nodes use the path's own interpolation mode,
so Linear and CadlagStep arguments are distinguished exactly where they
should be.  The ``probe_*`` or ``batch_*`` hooks evaluate f and its first
derivative on matrices of node values; the Monte-Carlo harnesses evaluate
only through them, so every functional carries one of the two sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core_paths import DiscretePath, PathMode, TimeGrid
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
    name: str
    eval: Callable[[DiscretePath], float]
    d1: Callable[[DiscretePath, DiscretePath], float]
    d2: Callable[[DiscretePath, DiscretePath, DiscretePath], float]
    growth_exponent: float
    # reads only these times; None means the whole path matters
    probe_times: Optional[tuple[float, ...]] = None
    probe_eval: Optional[Callable[[np.ndarray], np.ndarray]] = None
    probe_d1: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    batch_eval: Optional[Callable[[np.ndarray, TimeGrid, PathMode], np.ndarray]] = None
    batch_d1: Optional[
        Callable[[np.ndarray, np.ndarray, TimeGrid, PathMode], np.ndarray]
    ] = None

    def __post_init__(self):
        probe = self.probe_times is not None and None not in (self.probe_eval, self.probe_d1)
        if not probe and None in (self.batch_eval, self.batch_d1):
            raise InvalidArgumentError(f"functional {self.name!r} has no probe or batch hooks")


def trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    """Weights w with w @ y the trapezoid rule for samples y on ``nodes``:
    w_0 = d_0/2, w_i = (d_{i-1} + d_i)/2, w_n = d_{n-1}/2 with d = diff(nodes)."""
    d = np.diff(nodes)
    return 0.5 * (np.append(d, 0.0) + np.insert(d, 0, 0.0))


def trapezoid(y: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Trapezoid rule along the last axis of ``y``, one contraction with
    ``trapezoid_weights(nodes)``.  Every C-contiguous row is summed by the
    same loop, so a row's result does not depend on the rows batched with
    it, and a single path equals its one-row batch bit for bit."""
    return np.einsum("...j,j->...", y, trapezoid_weights(nodes))


def _check_time(t: float):
    if not np.isfinite(t) or t < 0.0:
        raise InvalidArgumentError(f"functional time must be >= 0, got {t!r}")


def product_functional(t1: float, t2: float) -> PathFunctional:
    """f(x) = x(t1) x(t2); the covariance-type test functional."""
    _check_time(t1)
    _check_time(t2)

    def _eval(x: DiscretePath) -> float:
        return float(x(t1) * x(t2))

    def _d1(x: DiscretePath, h: DiscretePath) -> float:
        return float(h(t1) * x(t2) + x(t1) * h(t2))

    def _d2(x: DiscretePath, h1: DiscretePath, h2: DiscretePath) -> float:
        return float(h1(t1) * h2(t2) + h2(t1) * h1(t2))

    return PathFunctional(
        name=f"product({t1},{t2})",
        eval=_eval,
        d1=_d1,
        d2=_d2,
        growth_exponent=2.0,
        probe_times=(float(t1), float(t2)),
        probe_eval=lambda v: v[..., 0] * v[..., 1],
        probe_d1=lambda v, h: h[..., 0] * v[..., 1] + v[..., 0] * h[..., 1],
    )


def point_functional(t1: float) -> PathFunctional:
    """f(x) = x(t1)."""
    _check_time(t1)
    return PathFunctional(
        name=f"point({t1})",
        eval=lambda x: float(x(t1)),
        d1=lambda x, h: float(h(t1)),
        d2=lambda x, h1, h2: 0.0,
        growth_exponent=1.0,
        probe_times=(float(t1),),
        probe_eval=lambda v: v[..., 0],
        probe_d1=lambda v, h: h[..., 0],
    )


def integral_functional(
    g: Callable[[np.ndarray], np.ndarray],
    dg: Callable[[np.ndarray], np.ndarray],
    d2g: Callable[[np.ndarray], np.ndarray],
    growth_exponent: float = 2.0,
    name: str = "integral",
) -> PathFunctional:
    """f(x) = int_0^T g(x(t)) dt by the trapezoid rule on the path's grid.

    ``g`` must be smooth with derivatives up to order four; only g' and g''
    are evaluated here (for d1 and d2), the rest certify smoothness.
    """

    def _batch_eval(v: np.ndarray, grid: TimeGrid, mode: PathMode) -> np.ndarray:
        return trapezoid(g(v), grid.nodes)

    def _batch_d1(v, hv, grid: TimeGrid, mode: PathMode) -> np.ndarray:
        return trapezoid(dg(v) * hv, grid.nodes)

    def _eval(x: DiscretePath) -> float:
        return float(_batch_eval(x.values, x.grid, x.mode))

    def _d1(x: DiscretePath, h: DiscretePath) -> float:
        return float(_batch_d1(x.values, h.values, x.grid, x.mode))

    def _d2(x: DiscretePath, h1: DiscretePath, h2: DiscretePath) -> float:
        return float(trapezoid(d2g(x.values) * h1.values * h2.values, x.grid.nodes))

    return PathFunctional(
        name=name,
        eval=_eval,
        d1=_d1,
        d2=_d2,
        growth_exponent=float(growth_exponent),
        batch_eval=_batch_eval,
        batch_d1=_batch_d1,
    )


def smooth_max_functional(beta: float) -> PathFunctional:
    """Smooth surrogate of the running maximum:

        f(x) = beta^{-1} log( (1/T) int_0^T exp(beta x(t)) dt ).

    Always <= sup |x| and increasing to the maximum as beta grows.  The
    log-mean-exp and the exp(beta x) weights are evaluated in shifted form
    (exponents <= 0), so both stay finite for every finite path.
    """
    if not beta > 0:
        raise InvalidArgumentError(f"beta must be positive, got {beta!r}")
    bf = float(beta)

    def _batch_eval(v: np.ndarray, grid: TimeGrid, mode: PathMode) -> np.ndarray:
        m = v.max(axis=-1, keepdims=True)
        t_span = grid.horizon
        integral = trapezoid(np.exp(bf * (v - m)), grid.nodes)
        return m[..., 0] + np.log(integral / t_span) / bf

    def _weighted(v: np.ndarray, payload: np.ndarray, grid: TimeGrid, mode=None) -> np.ndarray:
        # weighted trapezoid mean of payload, weights exp(beta x): f's batch_d1
        m = v.max(axis=-1, keepdims=True)
        w = np.exp(bf * (v - m))
        num = trapezoid(w * payload, grid.nodes)
        den = trapezoid(w, grid.nodes)
        return num / den

    def _eval(x: DiscretePath) -> float:
        return float(_batch_eval(x.values, x.grid, x.mode))

    def _d1(x: DiscretePath, h: DiscretePath) -> float:
        return float(_weighted(x.values, h.values, x.grid))

    def _d2(x: DiscretePath, h1: DiscretePath, h2: DiscretePath) -> float:
        v = x.values
        both = _weighted(v, h1.values * h2.values, x.grid)
        first = _weighted(v, h1.values, x.grid)
        second = _weighted(v, h2.values, x.grid)
        return float(bf * (both - first * second))

    return PathFunctional(
        name=f"smooth_max({beta})",
        eval=_eval,
        d1=_d1,
        d2=_d2,
        growth_exponent=1.0,
        batch_eval=_batch_eval,
        batch_d1=_weighted,
    )
