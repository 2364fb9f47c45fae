"""Layer microbenchmarks through public calls.

* ns per Gaussian draw (PCG64 via ``SeedSpec.rng``, a new 131072-row array
  per call);
* ``schemes.euler_values_batch`` ns per sample-step at 256, 1000 and 131072
  rows, for the OU and sine models, 64 steps per call;
* cold ``mollifier.mollify_operator`` builds at n = 129, 1025 and 4097 nodes
  (eps = 2 x mesh) in ms, with the computed dense operator bytes 8 n^2.

Each timing is the median of several calls.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

import weakpathlab as wpl
from weakpathlab import mollifier, schemes
from weakpathlab.core_paths import PathMode

EULER_ROWS = (256, 1000, 131072)
EULER_STEPS = 64
EULER_SAMPLE_STEPS = 4_000_000  # per timing, split over calls
MOLLIFIER_NODES = {129: 5, 1025: 3, 4097: 1}  # nodes -> cold builds timed


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def measure() -> dict:
    m = {}
    gen = wpl.SeedSpec(1).rng()
    rows = 131072
    m["micro.ns_per_draw"] = _median_time(lambda: gen.standard_normal(rows), 30) * 1e9 / rows

    grid = wpl.make_uniform_grid(1.0, EULER_STEPS)
    sqdt = np.sqrt(np.diff(grid.nodes))
    models = {"ou": wpl.ou_model(1.0, 1.0, 1.0), "sine": wpl.sine_model(0.5, 1.0, 0.5)}
    for label, model in models.items():
        for rows in EULER_ROWS:
            dw = gen.standard_normal((rows, EULER_STEPS)) * sqdt
            calls = max(3, EULER_SAMPLE_STEPS // (rows * EULER_STEPS))
            t = _median_time(lambda: schemes.euler_values_batch(model, grid, dw), calls)
            m[f"micro.euler_ns_per_sample_step.{label}.{rows}"] = t * 1e9 / (rows * EULER_STEPS)

    for n, builds in MOLLIFIER_NODES.items():
        grid = wpl.make_uniform_grid(1.0, n - 1)
        times = []
        for i in range(builds):
            # a distinct epsilon per build keeps every build cold
            spec = wpl.MollifierSpec(2.0 / (n - 1) * (1.0 + 1e-9 * (i + 1)))
            t0 = perf_counter()
            mollifier.mollify_operator(spec, grid, PathMode.LINEAR)
            times.append(perf_counter() - t0)
        m[f"micro.mollifier_build_ms.{n}"] = statistics.median(times) * 1e3
        m[f"micro.mollifier_dense_bytes.{n}"] = 8 * n * n
    return m
