"""One OpenBLAS thread for every product the package makes.

The package's products are made inside Monte-Carlo batches and are small:
band tiles of a few dozen columns, probe rows, 2 x 2 covariances.  A second
OpenBLAS thread shortens them little, and between products it spins idle
on another core, which costs CPU time.  So the only parallelism is the
workers of :func:`parallel.deterministic_batch_map`: the map, the nested
estimators, :func:`mollifier.mollify` and :func:`mollifier.audit` run
inside :func:`one_thread`, and every output is then the same for any core
count.

:func:`one_thread` holds the OpenBLAS that numpy loaded at one thread while
any entered block runs and restores the caller's count when the last one
leaves, also on an exception.  Entries from several Python threads share
one reference count under a lock.  The library is looked up on the first
entry, never at import.  Where no OpenBLAS or no thread-count symbol is
found, nothing is changed and :func:`describe` reports ``"unmanaged"``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading

import numpy as np

__all__ = ["one_thread", "describe"]

# (set, get) symbol pairs: the numpy wheel's bundled scipy-openblas, then a
# system OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _candidates() -> list[str]:
    """OpenBLAS libraries bundled with numpy, else those mapped into the process."""
    here = os.path.dirname(np.__file__)
    bundled = glob.glob(os.path.join(here, "..", "numpy.libs", "*openblas*"))
    bundled += glob.glob(os.path.join(here, ".dylibs", "*openblas*"))
    if bundled:
        return sorted(bundled)
    try:
        with open("/proc/self/maps") as fh:
            mapped = {line.split()[-1] for line in fh}
    except OSError:
        return []
    return sorted(p for p in mapped if "openblas" in os.path.basename(p))


@functools.lru_cache(maxsize=1)
def _controls():
    """(set, get) thread-count functions of the loaded OpenBLAS, or None."""
    for path in _candidates():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


# open one_thread blocks and the caller's count to restore after the last
_LOCK = threading.Lock()
_PIN = {"depth": 0, "saved": 0}


@contextlib.contextmanager
def one_thread():
    """Hold OpenBLAS at one thread for the block; usable as ``@one_thread()``."""
    controls = _controls()
    if controls is None:
        yield
        return
    setter, getter = controls
    with _LOCK:
        if _PIN["depth"] == 0:
            _PIN["saved"] = getter()
            setter(1)
        _PIN["depth"] += 1
    try:
        yield
    finally:
        with _LOCK:
            _PIN["depth"] -= 1
            if _PIN["depth"] == 0:
                setter(_PIN["saved"])


def describe() -> dict:
    """Name and version of numpy's BLAS, and ``threads``: the OpenBLAS
    thread count every product runs at, 1 or ``"unmanaged"``."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": 1 if _controls() is not None else "unmanaged"}
