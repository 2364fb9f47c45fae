import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

from weakpathlab import blas
from weakpathlab.core_paths import DiscretePath, PathMode, TimeGrid, make_uniform_grid
from weakpathlab.errors import InvalidArgumentError
from weakpathlab.functional_calculus import estimate_F, kolmogorov_residual
from weakpathlab.functionals import point_functional
from weakpathlab.models import ou_model
from weakpathlab.parallel import deterministic_batch_map
from weakpathlab.randomness import SeedSpec

FINE = make_uniform_grid(1.0, 16)
OU = ou_model(1.0, 1.0, 1.0)
PREFIX = DiscretePath(TimeGrid(FINE.nodes[:5]), np.ones(5), PathMode.LINEAR)


@pytest.fixture
def controls():
    """The real (set, get) pair; the caller's count is restored afterwards."""
    found = blas._controls()
    if found is None:
        pytest.skip("no OpenBLAS thread-count symbol in this process")
    setter, getter = found
    before = getter()
    yield setter, getter
    setter(before)


def recording(seen, pause=0.0, fail=False):
    """point(1.0) whose batch hook records the OpenBLAS count it runs under."""
    getter = blas._controls()[1]
    f = point_functional(1.0)

    def probe_eval(v):
        seen.append(getter())
        time.sleep(pause)
        if fail:
            raise RuntimeError("hook failed")
        return f.probe_eval(v)

    return dataclasses.replace(f, probe_eval=probe_eval)


def estimate(f, seed=1):
    return estimate_F(OU, PREFIX, f, None, 64, SeedSpec(seed), FINE)


class TestOneThread:
    @pytest.mark.parametrize("caller", [2, 1])
    def test_one_inside_callers_count_after(self, controls, caller):
        setter, getter = controls
        setter(caller)
        seen = []
        estimate(recording(seen))
        assert seen == [1]
        assert getter() == caller

    def test_restored_after_an_estimator_raises(self, controls):
        setter, getter = controls
        setter(2)
        seen = []
        with pytest.raises(RuntimeError, match="hook failed"):
            estimate(recording(seen, fail=True))
        assert seen == [1] and getter() == 2
        off_start = DiscretePath(PREFIX.grid, np.full(5, 2.0), PathMode.LINEAR)
        with pytest.raises(InvalidArgumentError):
            kolmogorov_residual(OU, off_start, point_functional(1.0), None, 8, SeedSpec(2), FINE)
        assert getter() == 2

    def test_nested_entry(self, controls):
        setter, getter = controls
        setter(2)
        seen = []
        with blas.one_thread():
            estimate(recording(seen))
            assert getter() == 1  # the inner exit keeps the outer block's pin
        assert seen == [1] and getter() == 2

    def test_concurrent_entries_leave_the_callers_count(self, controls):
        setter, getter = controls
        setter(2)
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            values = deterministic_batch_map(
                lambda i: estimate(recording(seen, pause=0.01), seed=i).value, 8, threads=4
            )
        finally:
            sys.setswitchinterval(interval)
        assert seen == [1] * 8
        assert getter() == 2
        assert values == [estimate(point_functional(1.0), seed=i).value for i in range(8)]

    def test_absent_symbol_is_unmanaged(self, controls, monkeypatch):
        setter, getter = controls
        setter(2)
        monkeypatch.setattr(blas, "_SYMBOLS", (("no_such_set", "no_such_get"),))
        blas._controls.cache_clear()
        try:
            assert blas.describe()["nested_threads"] == "unmanaged"
            seen = []
            with blas.one_thread():
                seen.append(getter())
            assert seen == [2] and getter() == 2
        finally:
            monkeypatch.undo()
            blas._controls.cache_clear()
        assert blas.describe()["nested_threads"] == 1


def test_pin_is_threading_safe_under_contention(controls):
    """Many short overlapping blocks: the count inside is always 1 and the
    caller's count comes back once every block has left."""
    setter, getter = controls
    setter(2)
    bad = []

    def worker():
        for _ in range(200):
            with blas.one_thread():
                if getter() != 1:
                    bad.append(getter())

    threads = [threading.Thread(target=worker) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == [] and getter() == 2
