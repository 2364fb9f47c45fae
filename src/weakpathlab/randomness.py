"""Reproducible Brownian path generation and its Haar/Schauder anatomy.

Streams are counter-based: the generator state for a stream is derived by a
keyed hash of ``(master_seed, stream_id, *subkeys)`` (numpy's SeedSequence),
so distinct keys give statistically independent streams and the draw for a
given key never depends on worker count or execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_paths import DiscretePath, PathMode, TimeGrid
from .errors import InvalidArgumentError

__all__ = [
    "SeedSpec",
    "BrownianPath",
    "sample_brownian",
    "haar_coefficients",
    "schauder_reconstruct",
]


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a stream index (usually the sample index)."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.master_seed < 0 or self.stream_id < 0:
            raise InvalidArgumentError("seeds and stream ids must be nonnegative")

    def rng(self, *subkeys: int) -> np.random.Generator:
        """Fresh generator for (master_seed, stream_id, *subkeys)."""
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_id, *subkeys)
        )
        return np.random.default_rng(seq)

    def with_stream(self, stream_id: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, stream_id)


@dataclass(frozen=True)
class BrownianPath:
    """Piecewise-linear realization of a Wiener path with W(0) = 0."""

    path: DiscretePath

    def __post_init__(self):
        if self.path.values[0] != 0.0:
            raise InvalidArgumentError("Brownian path must start at 0")
        if self.path.mode is not PathMode.LINEAR:
            raise InvalidArgumentError("Brownian path must use Linear mode")

    @property
    def grid(self) -> TimeGrid:
        return self.path.grid

    @property
    def values(self) -> np.ndarray:
        return self.path.values


def sample_brownian(grid: TimeGrid, seed: SeedSpec) -> BrownianPath:
    """Sample W at the grid nodes: independent N(0, tau_{k+1}-tau_k) increments."""
    gaps = np.diff(grid.nodes)
    z = seed.rng().standard_normal(gaps.size)
    values = np.empty(grid.nodes.size)
    values[0] = 0.0
    np.cumsum(np.sqrt(gaps) * z, out=values[1:])
    return BrownianPath(DiscretePath(grid, values, PathMode.LINEAR))


def _dyadic_subgrid(w: BrownianPath, coarse: TimeGrid, interval_index: int, levels: int):
    """Fine-node index range of coarse interval n, with dyadic checks."""
    n = interval_index
    if n < 0 or n >= coarse.n_intervals:
        raise InvalidArgumentError(f"interval index {n} outside 0..{coarse.n_intervals - 1}")
    if levels < 0:
        raise InvalidArgumentError("levels must be >= 0")
    idx = w.grid.indices_of_subgrid(coarse)
    lo, hi = int(idx[n]), int(idx[n + 1])
    m = hi - lo
    if m & (m - 1) != 0 or m < 2**levels:
        raise InvalidArgumentError(
            f"interval {n} has {m} subintervals; need a power of two >= 2^{levels}"
        )
    sub = w.grid.nodes[lo : hi + 1]
    gaps = np.diff(sub)
    if not np.allclose(gaps, gaps[0], rtol=1e-9, atol=0.0):
        raise InvalidArgumentError(f"subgrid of interval {n} is not uniform (not dyadic)")
    return lo, hi


def _haar_sign_matrix(levels: int) -> np.ndarray:
    """Rows: rescaled Haar functions H_k, k = 0..2^J-1, sampled on the 2^J
    finest dyadic subintervals of [0, 1); entries carry the 2^{j/2} factor."""
    m = 2**levels
    rows = np.zeros((m, m))
    rows[0] = 1.0
    k = 1
    for j in range(levels):
        block = m >> (j + 1)  # finest cells per half-support
        amp = 2.0 ** (j / 2.0)
        for ell in range(2**j):
            start = ell * 2 * block
            rows[k, start : start + block] = amp
            rows[k, start + block : start + 2 * block] = -amp
            k += 1
    return rows


def haar_coefficients(
    w: BrownianPath, coarse: TimeGrid, interval_index: int, levels: int
) -> np.ndarray:
    """Coefficients ``int H^n_k dW`` on coarse interval n, k = 0..2^levels-1.

    ``H^n_k`` is the Haar basis of L^2([tau_n, tau_{n+1}]) rescaled by
    (tau_{n+1}-tau_n)^{-1/2}.  The integrals are Riemann-Stieltjes sums
    against the stored increments of ``w``, which is exact because the Haar
    functions are constant on the dyadic cells of the subgrid.
    """
    lo, hi = _dyadic_subgrid(w, coarse, interval_index, levels)
    m_fine = hi - lo
    m = 2**levels
    cell = m_fine // m
    dw = np.diff(w.values[lo : hi + 1])
    if cell > 1:  # aggregate increments to the 2^levels resolution
        dw = dw.reshape(m, cell).sum(axis=1)
    length = w.grid.nodes[hi] - w.grid.nodes[lo]
    return (_haar_sign_matrix(levels) @ dw) / np.sqrt(length)


def schauder_reconstruct(
    coeffs: np.ndarray, interval: tuple[float, float], grid: TimeGrid
) -> DiscretePath:
    """Partial sum sum_k c_k S^n_k sampled at the grid nodes.

    ``S^n_k(t) = int_a^t H^n_k`` for the interval [a, b]; the functions are
    extended by zero outside [a, b].  The sum reconstructs the increment path
    t -> W(t) - W(a): with all coefficients up to level J present it matches
    the increments exactly at the dyadic points of resolution (b-a)/2^J.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    m = coeffs.size
    if m < 1 or m & (m - 1) != 0:
        raise InvalidArgumentError(f"coefficient count {m} must be a power of two")
    levels = m.bit_length() - 1
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise InvalidArgumentError(f"empty interval {interval!r}")

    t = grid.nodes
    u = np.clip((t - a) / (b - a), 0.0, 1.0)  # unit-interval coordinate
    values = np.zeros(t.size)

    # k = 0: ramp (b-a)^{-1/2} (t - a) on [a, b], frozen outside.
    root_len = np.sqrt(b - a)
    values += coeffs[0] * root_len * u
    k = 1
    for j in range(levels):
        amp = 2.0 ** (j / 2.0)
        for ell in range(2**j):
            left = ell / 2**j
            mid = (2 * ell + 1) / 2 ** (j + 1)
            right = (ell + 1) / 2**j
            tent = amp * (
                np.clip(u - left, 0.0, mid - left) - np.clip(u - mid, 0.0, right - mid)
            )
            values += coeffs[k] * root_len * tent
            k += 1
    return DiscretePath(grid, values, PathMode.LINEAR)
