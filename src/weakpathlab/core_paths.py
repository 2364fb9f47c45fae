"""Time grids and discrete path representations.

A path on [0, T] is a row of values at the nodes of a :class:`TimeGrid`,
read as the continuous piecewise-affine path through them: the linearly
interpolated Euler scheme is exactly of this form, and a vertical bump of a
path's endpoint moves the continuation's start value, not the path.
:func:`interpolate_values` reads a batch of rows at any times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "PathMode",
    "TimeGrid",
    "DiscretePath",
    "make_uniform_grid",
    "refine_grid",
    "sup_norm",
]


class PathMode(Enum):
    """How a path is read between nodes; affine is the only way."""

    LINEAR = "linear"


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nodes 0 = tau_0 < ... < tau_N = T with mesh delta.

    ``mesh`` is always the computed maximum gap between consecutive nodes.
    The degenerate single-node grid {0} is permitted so that a prefix on
    [0, 0] stays representable; every constructor for nondegenerate grids
    requires T > 0.
    """

    nodes: np.ndarray
    mesh: float = field(init=False)

    def __post_init__(self):
        nodes = _readonly(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 1:
            raise InvalidArgumentError("grid needs at least one node")
        if nodes[0] != 0.0:
            raise InvalidArgumentError("grid must start at 0")
        gaps = np.diff(nodes)
        if nodes.size > 1:
            if np.any(gaps <= 0.0):
                raise InvalidArgumentError("grid nodes must be strictly increasing")
            if not np.all(np.isfinite(nodes)):
                raise InvalidArgumentError("grid nodes must be finite")
            object.__setattr__(self, "mesh", float(gaps.max()))
        else:
            object.__setattr__(self, "mesh", 0.0)

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_intervals(self) -> int:
        return self.nodes.size - 1

    def index_of(self, t: float) -> int:
        """Index of the node equal to ``t`` (exact comparison)."""
        i = int(np.searchsorted(self.nodes, t))
        if i >= self.nodes.size or self.nodes[i] != t:
            raise InvalidArgumentError(f"t={t!r} is not a grid node")
        return i

    def index_near(self, t: float, rel_tol: float = 1e-9) -> int:
        """Index of the node within ``rel_tol`` of ``t`` (for user-supplied
        times that are nodes up to decimal-to-binary wobble)."""
        i = int(np.searchsorted(self.nodes, t))
        best = min(
            (j for j in (i - 1, i) if 0 <= j < self.nodes.size),
            key=lambda j: abs(self.nodes[j] - t),
        )
        if abs(self.nodes[best] - t) > rel_tol * max(1.0, self.horizon):
            raise InvalidArgumentError(f"t={t!r} is not near a grid node")
        return best

    def is_refinement_of(self, coarse: "TimeGrid") -> bool:
        """True when every node of ``coarse`` is a node of this grid."""
        idx = np.searchsorted(self.nodes, coarse.nodes)
        if idx[-1] >= self.nodes.size:
            return False
        return bool(np.all(self.nodes[idx] == coarse.nodes))

    def indices_of_subgrid(self, coarse: "TimeGrid") -> np.ndarray:
        """Positions of ``coarse``'s nodes inside this grid's node array."""
        idx = np.searchsorted(self.nodes, coarse.nodes)
        if idx[-1] >= self.nodes.size or not np.all(self.nodes[idx] == coarse.nodes):
            raise InvalidArgumentError("grids are not nested")
        return idx


def make_uniform_grid(T: float, N: int) -> TimeGrid:
    """Equispaced grid with N intervals on [0, T]."""
    if not np.isfinite(T) or T <= 0.0:
        raise InvalidArgumentError(f"horizon T must be positive, got {T!r}")
    if int(N) != N or N < 1:
        raise InvalidArgumentError(f"step count N must be a positive integer, got {N!r}")
    return TimeGrid(np.linspace(0.0, float(T), int(N) + 1))


def refine_grid(grid: TimeGrid, factor: int) -> TimeGrid:
    """Split every interval of ``grid`` into ``factor`` equal parts.

    The original nodes are reused bit-for-bit, so nesting of the two grids
    holds under exact comparison.  Grids that must nest are always built this
    way, never by independent recomputation.
    """
    if int(factor) != factor or factor < 1:
        raise InvalidArgumentError(f"refinement factor must be a positive integer, got {factor!r}")
    factor = int(factor)
    if factor == 1 or grid.n_intervals == 0:
        return grid
    a = grid.nodes[:-1]
    gaps = np.diff(grid.nodes)
    j = np.arange(factor, dtype=np.float64) / factor
    fine = (a[:, None] + gaps[:, None] * j[None, :]).ravel()
    fine = np.concatenate([fine, grid.nodes[-1:]])
    fine[:-1:factor] = grid.nodes[:-1]  # keep original nodes exact
    return TimeGrid(fine)


@dataclass(frozen=True)
class DiscretePath:
    """Values on a TimeGrid, read affinely between nodes (``mode`` is
    always ``PathMode.LINEAR``)."""

    grid: TimeGrid
    values: np.ndarray
    mode: PathMode = PathMode.LINEAR

    def __post_init__(self):
        values = _readonly(self.values)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
            raise InvalidArgumentError(
                f"value count {values.shape} does not match node count {self.grid.nodes.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("path values must be finite")


def interpolate_values(nodes: np.ndarray, values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Path values at times ``t`` for every row of ``values``, affine
    between the bracketing nodes.  ``values`` may be (n,) or (m, n); ``t``
    must lie in [nodes[0], nodes[-1]].  Exact node values are reproduced.
    """
    t = np.asarray(t, dtype=np.float64)
    idx = np.clip(np.searchsorted(nodes, t, side="right") - 1, 0, nodes.size - 2)
    left = nodes[idx]
    gap = nodes[idx + 1] - left
    lam = np.where(gap > 0, (t - left) / np.where(gap > 0, gap, 1.0), 0.0)
    # a row that is infinite at a bracketing node gets NaN from 0 * inf
    with np.errstate(invalid="ignore"):
        return (1.0 - lam) * values[..., idx] + lam * values[..., idx + 1]


def sup_norm(p: DiscretePath) -> float:
    """Uniform norm over [0, T].

    Exact: affine pieces attain their extrema at nodes.
    """
    return float(np.abs(p.values).max())

