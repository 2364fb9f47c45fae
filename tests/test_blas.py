import dataclasses
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import weakpathlab
from weakpathlab import blas, mollifier
from weakpathlab.core_paths import DiscretePath, TimeGrid, make_uniform_grid
from weakpathlab.errors import InvalidArgumentError
from weakpathlab.functional_calculus import estimate_F, kolmogorov_residual
from weakpathlab.functionals import integral_functional, point_functional
from weakpathlab.models import ou_model, sine_model
from weakpathlab.parallel import deterministic_batch_map
from weakpathlab.randomness import SeedSpec
from weakpathlab.weak_error import FineGridReference, RateExperiment, coupled_bias

FINE = make_uniform_grid(1.0, 16)
OU = ou_model(1.0, 1.0, 1.0)
PREFIX = DiscretePath(TimeGrid(FINE.nodes[:5]), np.ones(5))


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
        off_start = DiscretePath(PREFIX.grid, np.full(5, 2.0))
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
            assert blas.describe()["threads"] == "unmanaged"
            seen = []
            with blas.one_thread():
                seen.append(getter())
            assert seen == [2] and getter() == 2
        finally:
            monkeypatch.undo()
            blas._controls.cache_clear()
        assert blas.describe()["threads"] == 1


SQUARE = integral_functional(lambda u: u**2, lambda u: 2.0 * u, lambda u: 2.0 + 0.0 * u,
                             name="integral-square")


def mollified_rung(f, threads):
    """Rung 0 of a mollified sine ladder against a 4x fine grid: 128 samples
    in 4 batches of 32, each making a fine and a coarse mollifier apply."""
    exp = RateExperiment(
        model=sine_model(0.5, 1.0, 0.5), functional=f, horizon=1.0,
        deltas=(0.125, 0.0625, 0.03125), n_base=128, reference=FineGridReference(4),
        seed=SeedSpec(3), eps=0.25, batch_size=32, threads=threads,
    )
    return coupled_bias(exp, 0)


def bits(point):
    return [x.hex() if isinstance(x, float) else x for x in dataclasses.astuple(point)]


class TestEveryProduct:
    """Products outside the nested estimators run at one thread too: the
    batch map and the mollifier's public entry points hold the pin."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_mollified_rung(self, controls, threads):
        setter, getter = controls
        setter(2)
        seen = []

        def batch_eval(*args):
            seen.append(getter())
            return SQUARE.batch_eval(*args)

        point = mollified_rung(dataclasses.replace(SQUARE, batch_eval=batch_eval), threads)
        assert seen == [1] * 8
        assert getter() == 2
        with blas.one_thread():
            pinned = mollified_rung(SQUARE, threads)
        assert bits(point) == bits(pinned)
        assert getter() == 2

    @pytest.mark.parametrize("patched, call", [
        ("sample_brownian",
         lambda spec: mollifier.audit(spec, FINE, SeedSpec(4), 4)),
        ("mollify_operator",
         lambda spec: mollifier.mollify(spec, DiscretePath(FINE, np.sin(FINE.nodes)))),
    ], ids=["audit", "mollify"])
    def test_mollifier_entry_point(self, controls, monkeypatch, patched, call):
        setter, getter = controls
        setter(2)
        seen = []
        real = getattr(mollifier, patched)

        def recording(*args):
            seen.append(getter())
            return real(*args)

        monkeypatch.setattr(mollifier, patched, recording)
        call(mollifier.MollifierSpec(0.125))
        assert seen and set(seen) == {1}
        assert getter() == 2


def test_setup_looks_up_no_library():
    """Importing the package and building a mollified experiment leave
    OpenBLAS alone: the library is looked up on the first product."""
    code = (
        "import weakpathlab as w\n"
        "from weakpathlab import blas\n"
        "w.RateExperiment(model=w.sine_model(0.5, 1.0, 0.5),\n"
        "    functional=w.point_functional(1.0), horizon=1.0,\n"
        "    deltas=(1 / 8, 1 / 16, 1 / 32), n_base=100,\n"
        "    reference=w.FineGridReference(64), seed=w.SeedSpec(1), eps=0.25)\n"
        "assert blas._controls.cache_info().currsize == 0\n"
    )
    src = str(Path(weakpathlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
