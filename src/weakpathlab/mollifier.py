"""Backward-looking mollification of discrete paths.

The smoothing kernel is the standard even bump eta(t) ~ exp(-1/(1 - t^2)) on
(-1, 1), rescaled to width epsilon/2 and shifted so its support is [0, eps].
The smoothed path is

    (M x)(t) = int_{t-eps}^{t} eta_eps(t - s) xbar(s) ds,

with xbar the constant extension of x by x(0) to the left of 0.  Only values
of x at times <= t enter, so editing a path strictly after t never changes
the smoothed path at t.

For a fixed (grid, mode, eps) the map from node values to smoothed node
values is linear; it is materialized once as a lower-triangular matrix and
reused, which is what makes the nested Monte-Carlo estimators affordable.
Row j is nonzero only on the band of nodes in [tau_j - eps, tau_j], so
batches of rows are multiplied by column tiles of that band (``BandRows``),
which skips the zeros outside it; the dense matrix stays the reference.
The last ``CACHE_CAPACITY`` operators are kept with their tiles.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .core_paths import DiscretePath, PathMode, TimeGrid
from .errors import InvalidArgumentError, ResolutionTooCoarseError

__all__ = [
    "BandRows",
    "MollifierSpec",
    "band_tiles",
    "kernel_weights",
    "mollify",
    "mollify_operator",
]

# entries per cache; above the 6 operators of a three-rung fine-grid ladder
CACHE_CAPACITY = 8
# narrowest band tile, in output columns: narrower BLAS products cost more
# per column in call overhead than they save in skipped zeros
_MIN_TILE = 32


class LruCache:
    """Thread-safe map of at most ``CACHE_CAPACITY`` entries; the least
    recently used entry is dropped first."""

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key, build):
        """The entry for ``key``, made by ``build()`` when absent."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                return value
        value = build()
        with self._lock:
            self._entries[key] = value
            if len(self._entries) > CACHE_CAPACITY:
                self._entries.popitem(last=False)
        return value


_OPERATOR_CACHE = LruCache()  # key -> (operator, band tiles)


@dataclass(frozen=True)
class MollifierSpec:
    """Smoothing width eps and the number of quadrature points per window."""

    epsilon: float
    kernel_samples: int = 64

    def __post_init__(self):
        if not self.epsilon > 0:
            raise InvalidArgumentError(f"epsilon must be positive, got {self.epsilon!r}")
        if self.kernel_samples < 2:
            raise InvalidArgumentError("need at least 2 kernel samples")

    def offsets(self) -> np.ndarray:
        """Midpoint-rule lattice u_i in (0, eps), symmetric about eps/2."""
        k = self.kernel_samples
        return (np.arange(k) + 0.5) * (self.epsilon / k)

    def weights(self) -> np.ndarray:
        """Normalized quadrature weights of eta_eps on the lattice.

        The bump values are renormalized so the weights sum to 1.0 exactly,
        which preserves constant paths.
        """
        k = self.kernel_samples
        xi = (2.0 * np.arange(k) + 1.0) / k - 1.0  # in (-1, 1)
        raw = np.exp(-1.0 / (1.0 - xi**2))
        w = raw / math.fsum(raw)
        w[k // 2] += 1.0 - math.fsum(w)
        return w


def kernel_weights(spec: MollifierSpec, grid_step: float) -> np.ndarray:
    """Discrete kernel weights, guarded against under-resolved windows.

    The window [0, eps] must cover at least two path-grid intervals;
    below that the convolution cannot see the path's variation.
    """
    if not grid_step > 0:
        raise InvalidArgumentError(f"grid step must be positive, got {grid_step!r}")
    if spec.epsilon < 2.0 * grid_step * (1.0 - 1e-9):
        raise ResolutionTooCoarseError(
            f"epsilon={spec.epsilon} spans fewer than 2 grid intervals of {grid_step}"
        )
    return spec.weights()


def mollify_operator(spec: MollifierSpec, grid: TimeGrid, mode: PathMode) -> np.ndarray:
    """Matrix A with (A v)_j = (M x)(tau_j) for node values v of x.

    A is lower triangular with nonnegative entries and rows summing to 1:
    each output is a convex combination of values at times <= tau_j.
    """
    return _cached(spec, grid, mode)[0]


def band_tiles(spec: MollifierSpec, grid: TimeGrid, mode: PathMode) -> tuple:
    """Column tiles (j0, j1, c0) of ``mollify_operator``'s A: rows j0..j1-1
    are zero left of column c0.

    The tiles are near-equal and at least max(32, band / 2) columns wide,
    where band is the widest row span, so a tile of width w reads at most
    w + band - 1 columns of each row instead of n.
    """
    return _cached(spec, grid, mode)[1]


def _cached(spec: MollifierSpec, grid: TimeGrid, mode: PathMode) -> tuple:
    key = (grid.nodes.tobytes(), spec.epsilon, spec.kernel_samples, mode)
    return _OPERATOR_CACHE.get(key, lambda: _build(spec, grid, mode))


def _build(spec: MollifierSpec, grid: TimeGrid, mode: PathMode) -> tuple:
    kernel_weights(spec, grid.mesh if grid.mesh > 0 else spec.epsilon)

    nodes = grid.nodes
    n = nodes.size
    u = spec.offsets()
    w = spec.weights()
    a = np.zeros((n, n))
    first = np.zeros(n, dtype=np.intp)  # leftmost column row j touches
    for j in range(n):
        s = nodes[j] - u  # sample times, all < tau_j
        below = s <= 0.0
        a[j, 0] += w[below].sum()
        inside = ~below
        if np.any(inside):
            si = s[inside]
            wi = w[inside]
            k = np.searchsorted(nodes, si, side="right") - 1
            if not np.any(below):
                first[j] = k.min()
            if mode is PathMode.CADLAG_STEP:
                np.add.at(a[j], k, wi)
            else:
                lam = (si - nodes[k]) / (nodes[k + 1] - nodes[k])
                np.add.at(a[j], k, wi * (1.0 - lam))
                np.add.at(a[j], k + 1, wi * lam)
    a.flags.writeable = False
    # first is nondecreasing (the window slides right with tau_j), so
    # first[j0] bounds every row of a tile starting at j0
    band = int((np.arange(n) - first).max()) + 1
    count = max(1, n // max(_MIN_TILE, band // 2))
    edges = [i * n // count for i in range(count + 1)]
    tiles = tuple((j0, j1, int(first[j0])) for j0, j1 in zip(edges[:-1], edges[1:]))
    return a, tiles


class BandRows:
    """Rows of node values (an (m, n) array) for ``BandRows(values, tiles)
    @ A.T``, with A a mollifier operator and ``tiles`` its ``band_tiles``.

    The product is computed one band tile at a time and equals
    ``values @ A.T`` up to rounding; one tile is exactly that product.  A
    row holding a non-finite value gives a NaN row, as the dense product's
    0 * inf terms would.  It is spelled as one ``@`` with the dense
    operator on the right so that a wrapper of the operator that observes
    ``x @ A.T`` (as the benchmark's tracer does) sees one product of m rows.
    """

    __slots__ = ("values", "tiles")

    def __init__(self, values: np.ndarray, tiles: tuple):
        self.values = values
        self.tiles = tiles

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.values, dtype=dtype)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is not np.matmul or method != "__call__" or kwargs or inputs[0] is not self:
            return NotImplemented
        values, at = self.values, np.asarray(inputs[1])
        out = np.empty(values.shape[:-1] + at.shape[-1:])
        for j0, j1, c0 in self.tiles:
            np.matmul(values[..., c0:j1], at[c0:j1, j0:j1], out=out[..., j0:j1])
        if len(self.tiles) > 1:
            out[~np.isfinite(values).all(axis=-1)] = np.nan
        return out


def mollify(spec: MollifierSpec, p: DiscretePath) -> DiscretePath:
    """Smoothed path sampled on p's grid; the output is continuous (Linear)."""
    if p.grid.nodes.size < 2:
        return DiscretePath(p.grid, p.values, PathMode.LINEAR)
    a = mollify_operator(spec, p.grid, p.mode)
    return DiscretePath(p.grid, a @ p.values, PathMode.LINEAR)
