"""Backward-looking mollification of discrete paths.

The smoothing kernel is the standard even bump eta(t) ~ exp(-1/(1 - t^2)) on
(-1, 1), rescaled to width epsilon/2 and shifted so its support is [0, eps].
The smoothed path is

    (M x)(t) = int_{t-eps}^{t} eta_eps(t - s) xbar(s) ds,

with xbar the constant extension of x by x(0) to the left of 0.  Only values
of x at times <= t enter, so editing a path strictly after t never changes
the smoothed path at t.

For a fixed (grid, eps) the map from node values to smoothed node
values is linear; it is materialized once as a lower-triangular matrix and
reused, which is what makes the nested Monte-Carlo estimators affordable.
Row j is nonzero only on the band of nodes in [tau_j - eps, tau_j], so
batches of rows are multiplied by tiles of that band (``BandRows``), which
skips the zeros outside it; the dense matrix stays the reference.  When
the kernel samples fall on nodes (on a uniform grid, when
eps N / kernel_samples is an even integer g and rounding keeps every sample
on its node), output j reads only the columns c > 0 in one residue class
mod g, so the band splits into g classes and the tiles skip the zeros
inside it too (``BandTiles``).  g is read off the nonzeros of the built
operator, never assumed.  The last ``CACHE_CAPACITY`` operators are kept
with their tile plans (``functools.lru_cache``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blas import one_thread
from .core_paths import DiscretePath, PathMode, TimeGrid
from .errors import InvalidArgumentError, ResolutionTooCoarseError
from .randomness import SeedSpec, sample_brownian

__all__ = [
    "BandRows",
    "BandTiles",
    "MollifierAudit",
    "MollifierSpec",
    "audit",
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


@dataclass(frozen=True)
class MollifierSpec:
    """Smoothing width eps and the number of quadrature points per window."""

    epsilon: float
    kernel_samples: int = 64

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise InvalidArgumentError(f"epsilon must be finite and positive, got {self.epsilon!r}")
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
    """Matrix A with (A v)_j = (M x)(tau_j) for node values v of x, the
    path read affinely between nodes (``mode`` is ``PathMode.LINEAR``).

    A is lower triangular with nonnegative entries and rows summing to 1:
    each output is a convex combination of values at times <= tau_j.
    """
    return _build(grid.nodes.tobytes(), spec)[0]


def band_tiles(spec: MollifierSpec, grid: TimeGrid) -> "BandTiles":
    """The tile plan of ``mollify_operator``'s A for ``BandRows``: band
    tiles within the residue classes mod g of its nonzeros (``BandTiles``)."""
    return _build(grid.nodes.tobytes(), spec)[1]


@dataclass(frozen=True, eq=False)
class BandTiles:
    """How ``BandRows`` multiplies rows by A.T: every nonzero A[j, c] lies in
    exactly one tile, or in the rank-one column term.

    ``step`` is g, the largest step for which every nonzero A[j, c] with
    c > 0 has the same (j - c) mod g (1 when no step above 1 does).  Output
    j then reads only the columns of one residue class, so the rows and
    columns of each class form a band matrix of their own.

    Each tile is a pair (rows, cols) of slices of step g: the outputs
    ``rows`` read the inputs ``cols`` and no other column above 0.  The
    tiles of a class are near-equal and at least max(32, band / 2) rows
    long, band being the widest row span in class units, so a tile of w
    rows reads at most w + band - 1 columns instead of n / g.  ``blocks``
    holds each tile's A[rows, cols].T: views of A.T for g = 1, with column 0
    inside the tiles and ``column0`` empty; C-contiguous copies for g > 1,
    where column 0, which carries the constant extension of x(0) to the left
    of 0 and breaks the classes, is the rank-one term
    ``column0[:, None] * x[:, 0]`` on the first ``column0.size`` outputs.
    """

    step: int
    tiles: tuple
    blocks: tuple
    column0: np.ndarray


@lru_cache(maxsize=CACHE_CAPACITY)
def _build(nodes: bytes, spec: MollifierSpec) -> tuple:
    """(A, its tile plan) on the grid whose node array has these bytes."""
    grid = TimeGrid(np.frombuffer(nodes))
    kernel_weights(spec, grid.mesh if grid.mesh > 0 else spec.epsilon)

    nodes = grid.nodes
    n = nodes.size
    u = spec.offsets()
    w = spec.weights()
    a = np.zeros((n, n))
    for j in range(n):
        s = nodes[j] - u  # sample times, all < tau_j
        below = s <= 0.0
        a[j, 0] += w[below].sum()
        inside = ~below
        if np.any(inside):
            si = s[inside]
            wi = w[inside]
            k = np.searchsorted(nodes, si, side="right") - 1
            lam = (si - nodes[k]) / (nodes[k + 1] - nodes[k])
            np.add.at(a[j], k, wi * (1.0 - lam))
            np.add.at(a[j], k + 1, wi * lam)
    a.flags.writeable = False
    return a, _plan(a)


def _plan(a: np.ndarray) -> BandTiles:
    n = a.shape[0]
    rows, cols = np.divmod(np.flatnonzero(a.ravel() != 0), n)  # 6x faster than np.nonzero(a)
    shift = (rows - cols)[cols > 0]
    g = int(np.gcd.reduce(shift - shift[0])) if shift.size else 0
    g = g or 1  # 0 when every shift is equal: classes would gain nothing
    lo = 0 if g == 1 else 1  # column 0 is the rank-one term when g > 1
    first = np.full(n, n)  # leftmost column >= lo that row j touches
    np.minimum.at(first, rows[cols >= lo], cols[cols >= lo])
    touched = first < n
    band = int(((np.arange(n) - first)[touched] // g).max(initial=0)) + 1
    width = max(_MIN_TILE, band // 2)
    tiles = []
    for r in range(g):
        js = np.arange(r, n, g)
        count = max(1, js.size // width)
        edges = [i * js.size // count for i in range(count + 1)]
        for e0, e1 in zip(edges[:-1], edges[1:]):
            end = int(js[e1 - 1]) + 1
            # a tile whose rows touch no column >= lo gets an empty column
            # slice, so its product is 0
            c0 = min(int(first[js[e0:e1]].min()), end)
            tiles.append((slice(int(js[e0]), end, g), slice(c0, end, g)))
    if g == 1:
        return BandTiles(1, tuple(tiles), tuple(a.T[cs, rs] for rs, cs in tiles), np.zeros(0))
    blocks = tuple(np.ascontiguousarray(a[rs, cs].T) for rs, cs in tiles)
    column0 = a[: np.flatnonzero(a[:, 0])[-1] + 1, 0].copy()
    return BandTiles(g, tuple(tiles), blocks, column0)


class BandRows:
    """Rows of node values (an (m, n) array) for ``BandRows(values, tiles)
    @ A.T``, with A a mollifier operator and ``tiles`` its ``band_tiles``.

    The product is computed one band tile at a time and equals
    ``values @ A.T`` up to rounding; one tile is exactly the product
    ``(A @ x.T).T`` of the step-major rows x.  Rows are read and returned
    step-major (the transpose of a C-contiguous (n, m) array, as
    ``euler_scan`` returns them; any other layout is copied into it), so
    each tile is one BLAS product of strided row blocks.  ``out``, when
    given, is a C-contiguous array of m n values that receives the
    (n, m) product and backs the returned array, so a caller can hold one
    buffer across products.  A row holding a non-finite value gives a NaN
    row, as the dense product's 0 * inf terms would.  It is spelled as one
    ``@`` with the dense operator on the right so that a wrapper of the
    operator that observes ``x @ A.T`` (as the benchmark's tracer does)
    sees one product of m rows.
    """

    __slots__ = ("values", "tiles", "out")

    def __init__(self, values: np.ndarray, tiles: BandTiles, out: np.ndarray | None = None):
        self.values = values
        self.tiles = tiles
        self.out = out

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.values, dtype=dtype)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is not np.matmul or method != "__call__" or kwargs or inputs[0] is not self:
            return NotImplemented
        plan, x, at = self.tiles, self.values, np.asarray(inputs[1])
        if x.strides[0] != x.itemsize or x.strides[1] < x.shape[0] * x.itemsize:
            x = np.ascontiguousarray(x.T).T
        shape = (at.shape[-1], x.shape[0])
        by_step = np.empty(shape) if self.out is None else self.out.reshape(shape)
        for (rows, cols), block in zip(plan.tiles, plan.blocks):
            np.matmul(x[:, cols], block, out=by_step[rows].T)
        by_step[: plan.column0.size] += np.multiply.outer(plan.column0, x[:, 0])
        if len(plan.tiles) > 1:
            by_step[:, ~np.isfinite(x).all(axis=1)] = np.nan
        return by_step.T


@one_thread()
def mollify(spec: MollifierSpec, p: DiscretePath) -> DiscretePath:
    """Smoothed path sampled on p's grid."""
    if p.grid.nodes.size < 2:
        return p
    a = mollify_operator(spec, p.grid, PathMode.LINEAR)
    return DiscretePath(p.grid, a @ p.values)


@dataclass(frozen=True)
class MollifierAudit:
    """The mollifier properties that :func:`audit` measures."""

    contraction: bool  # sup |M p| <= sup |p| on every path
    linearity: float  # largest |M(2p - 3q) - (2 M p - 3 M q)|
    pairs: int  # (p, q) pairs behind ``linearity``
    non_anticipative: bool  # M p on [0, t] unchanged by edits of p after t
    ramp: float  # largest |M r(t) - (t - eps / 2)| over t >= eps, r(t) = t


@one_thread()
def audit(spec: MollifierSpec, grid: TimeGrid, seed: SeedSpec, n_paths: int) -> MollifierAudit:
    """Measure contraction, linearity, non-anticipativity and the ramp shift
    of the mollifier on ``grid``.

    The paths p_i are ``sample_brownian`` on streams i < ``n_paths``;
    linearity pairs the first min(32, n_paths) of them with q_i on streams
    ``n_paths`` + i.  All of them, and the combinations 2 p_i - 3 q_i, are
    mollified by one product.  Non-anticipativity raises the path of stream
    2 ``n_paths`` by 7 after the middle node and compares the two mollified
    paths up to that node bit for bit; each is its own one-path product, so
    both are summed the same way.
    """
    if n_paths < 1:
        raise InvalidArgumentError(f"need at least one path, got {n_paths!r}")
    a = mollify_operator(spec, grid, PathMode.LINEAR)
    pairs = min(32, n_paths)
    paths = np.array([sample_brownian(grid, seed.with_stream(i)).values
                      for i in range(n_paths + pairs)])
    p, q = paths[:n_paths], paths[n_paths:]
    mp, mq, combined = np.split(np.vstack([paths, 2.0 * p[:pairs] - 3.0 * q]) @ a.T,
                                [n_paths, n_paths + pairs])
    contraction = bool(np.all(np.abs(mp).max(axis=1) <= np.abs(p).max(axis=1)))
    linearity = float(np.abs(combined - (2.0 * mp[:pairs] - 3.0 * mq)).max())

    w = sample_brownian(grid, seed.with_stream(2 * n_paths)).values
    cut = grid.n_intervals // 2
    edited = w.copy()
    edited[cut + 1 :] += 7.0
    non_anticipative = bool(np.array_equal((a @ w)[: cut + 1], (a @ edited)[: cut + 1]))

    inside = grid.nodes >= spec.epsilon
    shifted = (a @ grid.nodes)[inside] - (grid.nodes[inside] - spec.epsilon / 2.0)
    return MollifierAudit(contraction, linearity, pairs, non_anticipative,
                          float(np.abs(shifted).max()))
