"""Deterministic batch execution.

Work is split into batches of a fixed, thread-independent layout; each batch
derives its own random stream from its index.  Threads only decide which
worker computes which batch, and results are reduced in batch order, so
every numeric output is identical for any thread count.  The map is the
package's one source of parallelism: it holds OpenBLAS at one thread
(:func:`blas.one_thread`) while its batches run, so no product inside a
batch threads on its own.  Monte-Carlo partials are :class:`Moments`,
merged in that same order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from .blas import one_thread

R = TypeVar("R")

__all__ = ["Moments", "batch_layout", "deterministic_batch_map"]


def batch_layout(n_total: int, batch_size: int) -> list[tuple[int, int]]:
    """Fixed (offset, size) decomposition of ``n_total`` samples."""
    if n_total < 1 or batch_size < 1:
        raise ValueError("n_total and batch_size must be positive")
    out = []
    off = 0
    while off < n_total:
        size = min(batch_size, n_total - off)
        out.append((off, size))
        off += size
    return out


def deterministic_batch_map(
    worker: Callable[[int], R], n_batches: int, threads: int = 1
) -> list[R]:
    """``[worker(0), ..., worker(n_batches - 1)]`` in index order, with
    OpenBLAS held at one thread throughout."""
    with one_thread():
        if threads <= 1 or n_batches <= 1:
            return [worker(i) for i in range(n_batches)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, range(n_batches)))


@dataclass(frozen=True)
class Moments:
    """Count, sum and centred sum of squares of samples, per column.

    ``a + b`` merges two partials by the pairwise update of Chan, Golub &
    LeVeque (1983), which never forms the cancellation-prone S2 - n mean^2.
    For 1-D samples, ``mean`` and ``se`` equal numpy's mean and its ddof-1
    standard deviation over sqrt(n), bit for bit.
    """

    n: int
    total: np.ndarray | float
    m2: np.ndarray | float
    excluded: int = 0

    @staticmethod
    def of(x) -> "Moments":
        """Samples shaped (m,) or (m, k); rows with a non-finite entry are
        excluded and counted."""
        x = np.asarray(x, dtype=np.float64)
        keep = np.isfinite(x) if x.ndim == 1 else np.isfinite(x).all(axis=1)
        if not keep.all():
            x = x[keep]
        n = x.shape[0]
        total = x.sum(axis=0)
        m2 = ((x - total / n) ** 2).sum(axis=0) if n else total
        return Moments(n, total, m2, keep.size - n)

    def __add__(self, other: "Moments") -> "Moments":
        n, m2 = self.n + other.n, self.m2 + other.m2
        if self.n and other.n:
            delta = other.total / other.n - self.total / self.n
            m2 = m2 + delta**2 * (self.n * other.n / n)
        return Moments(n, self.total + other.total, m2, self.excluded + other.excluded)

    @property
    def mean(self):
        return self.total / self.n

    @property
    def se(self):
        """Standard error of the mean; 0 for fewer than two samples."""
        if self.n < 2:
            return 0.0 * self.m2
        return np.sqrt(self.m2 / (self.n - 1)) / np.sqrt(self.n)
