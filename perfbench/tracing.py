"""Per-layer tracing for the benchmark, done entirely from outside the package.

Spans are recorded around the calls into each layer's public functions:

* a ``SeedSpec`` subclass whose ``rng()`` times stream derivation and returns
  a proxy that times and counts ``standard_normal`` draws (randomness);
* ``dataclasses.replace``'d models and functionals whose ``b``, ``sigma``,
  ``db``, ``dsigma`` and ``probe_*``/``batch_*`` hooks are timed and counted
  (models, functionals);
* module-attribute wrappers, as seen by ``weak_error`` and
  ``functional_calculus``, on ``mollify_operator`` (mollifier),
  ``deterministic_batch_map`` and its worker (parallel), the public
  ``schemes.*_batch`` kernels (schemes), and the rung and check entry points
  (weak_error, functional_calculus);
* an ndarray view of each mollifier operator that times the matmul applied
  to it (mollifier).

Every wrapper returns exactly what the wrapped call returns, so a traced run
produces the same numbers as an untraced one.  Spans live in memory in one
log per thread; a span's self time is its duration minus the durations of
the child spans it covers in the same thread.
"""

from __future__ import annotations

import dataclasses
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from weakpathlab import functional_calculus, weak_error
from weakpathlab.randomness import SeedSpec

# span kinds, grouped by the package module (layer) they measure
_LAYER_OF = {
    "randomness.draw": "randomness",
    "randomness.stream": "randomness",
    "models.coeff": "models",
    "schemes.kernel": "schemes",
    "mollifier.lookup": "mollifier",
    "mollifier.apply": "mollifier",
    "functionals.eval": "functionals",
    "weak_error.experiment": "weak_error",
    "weak_error.rung": "weak_error",
    "weak_error.batch": "weak_error",
    "functional_calculus.kolmogorov": "functional_calculus",
    "functional_calculus.error_representation": "functional_calculus",
    "parallel.map": "parallel",
}

N_RUNG_SLOTS = 5  # weak_error.rung_s.<k> is reported for k < N_RUNG_SLOTS


class _ThreadLog:
    """Spans and counts of one thread; only that thread writes to it."""

    def __init__(self):
        self.stack: list[float] = []  # child time accumulated per open span
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.top_level_s = 0.0
        self.batch_s: list[float] = []
        self.rung_s = defaultdict(float)
        self.build_s = 0.0
        self.in_check = 0  # depth of open functional_calculus check spans


class Tracer:
    """Collects spans and counts from every thread that enters a wrapper."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        # a list, not a dict by thread id: pool threads of successive maps
        # can reuse the id of a thread that has ended
        self._logs: list[_ThreadLog] = []
        self._main = threading.get_ident()
        self._main_log = None
        self._operators: dict = {}  # operator key -> dense bytes
        self.map_capacity_s = 0.0  # sum of map wall times x workers

    # -- span bookkeeping -------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
                if threading.get_ident() == self._main:
                    self._main_log = log
            self._local.log = log
        return log

    def begin(self) -> tuple[_ThreadLog, float]:
        log = self._log()
        log.stack.append(0.0)
        return log, perf_counter()

    def end(self, log: _ThreadLog, t0: float, kind: str) -> float:
        dur = perf_counter() - t0
        children = log.stack.pop()
        log.total[kind] += dur
        log.self_time[kind] += dur - children
        log.calls[kind] += 1
        if log.stack:
            log.stack[-1] += dur
        else:
            log.top_level_s += dur
        return dur

    # -- wrappers ---------------------------------------------------------

    def timed(self, fn, kind: str, tally=None):
        """``fn`` inside a ``kind`` span; ``tally(log, args)`` adds counts."""

        def wrapped(*args, **kwargs):
            log, t0 = self.begin()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(log, t0, kind)
                if tally is not None:
                    tally(log, args)

        return wrapped

    def _check(self, fn, kind: str):
        """A functional_calculus check; paths f is evaluated on inside it
        are counted as inner paths."""

        def wrapped(*args, **kwargs):
            log, t0 = self.begin()
            log.in_check += 1
            try:
                return fn(*args, **kwargs)
            finally:
                log.in_check -= 1
                self.end(log, t0, kind)

        return wrapped

    def seed(self, seed: SeedSpec) -> SeedSpec:
        tracer = self

        class TracedSeedSpec(SeedSpec):
            def rng(self, *subkeys: int):
                log, t0 = tracer.begin()
                try:
                    gen = SeedSpec.rng(self, *subkeys)
                finally:
                    tracer.end(log, t0, "randomness.stream")
                return _CountingGenerator(gen, tracer)

        return TracedSeedSpec(seed.master_seed, seed.stream_id)

    def model(self, model):
        def tally_b(log, args):
            log.counts["models.b_calls"] += 1
            log.counts["models.b_elems"] += int(np.size(args[0]))

        def tally_other(log, args):
            log.counts["models.other_elems"] += int(np.size(args[0]))

        def coeff(name):
            return self.timed(
                getattr(model, name), "models.coeff", tally_b if name == "b" else tally_other
            )

        return dataclasses.replace(
            model, **{name: coeff(name) for name in ("b", "sigma", "db", "dsigma")}
        )

    def functional(self, f):
        def tally(log, args):
            rows = _rows(args[0])
            log.counts["functionals.rows"] += rows
            if log.in_check:
                log.counts["functional_calculus.paths"] += rows

        hooks = ("probe_eval", "probe_d1", "batch_eval", "batch_d1")
        return dataclasses.replace(
            f,
            **{
                name: self.timed(getattr(f, name), "functionals.eval", tally)
                for name in hooks
                if getattr(f, name) is not None
            },
        )

    def _mollify_operator(self, real):
        def lookup(spec, grid, mode):
            log, t0 = self.begin()
            try:
                op = real(spec, grid, mode)
            finally:
                dur = self.end(log, t0, "mollifier.lookup")
            key = (grid.nodes.tobytes(), spec.epsilon, spec.kernel_samples, mode)
            with self._lock:
                cold = key not in self._operators
                if cold:
                    self._operators[key] = 8 * grid.nodes.size**2
            if cold:
                log.counts["mollifier.builds"] += 1
                log.build_s += dur
            view = op.view(_TimedOperator)
            view._tracer = self
            return view

        return lookup

    def _batch_map(self, real):
        def batch_map(worker, n_batches, threads=1):
            def timed_worker(i):
                log, t0 = self.begin()
                try:
                    return worker(i)
                finally:
                    log.batch_s.append(self.end(log, t0, "weak_error.batch"))

            log, t0 = self.begin()
            try:
                return real(timed_worker, n_batches, threads)
            finally:
                dur = self.end(log, t0, "parallel.map")
                workers = 1 if threads <= 1 or n_batches <= 1 else min(threads, n_batches)
                with self._lock:
                    self.map_capacity_s += dur * workers

        return batch_map

    def _rung(self, real):
        def coupled_bias(exp, rung):
            log, t0 = self.begin()
            try:
                point = real(exp, rung)
            finally:
                log.rung_s[int(rung)] += self.end(log, t0, "weak_error.rung")
            log.counts["weak_error.samples"] += point.n_samples
            log.counts["weak_error.excluded"] += point.excluded
            return point

        return coupled_bias

    @contextmanager
    def installed(self):
        """Patch the module attributes seen by weak_error and
        functional_calculus for the duration of the block."""
        patches = [
            (weak_error, "coupled_bias", self._rung(weak_error.coupled_bias)),
            (weak_error, "weak_rate_experiment",
             self.timed(weak_error.weak_rate_experiment, "weak_error.experiment")),
            (weak_error, "deterministic_batch_map", self._batch_map(weak_error.deterministic_batch_map)),
            (weak_error, "mollify_operator", self._mollify_operator(weak_error.mollify_operator)),
            (functional_calculus, "mollify_operator",
             self._mollify_operator(functional_calculus.mollify_operator)),
            (functional_calculus, "kolmogorov_residual",
             self._check(functional_calculus.kolmogorov_residual, "functional_calculus.kolmogorov")),
            (functional_calculus, "error_representation_sides",
             self._check(functional_calculus.error_representation_sides,
                         "functional_calculus.error_representation")),
        ]
        for module in (weak_error, functional_calculus):
            for name in ("euler_values_batch", "stochastic_interpolation_batch",
                         "variation_values_batch"):
                if hasattr(module, name):
                    patches.append((module, name, self.timed(getattr(module, name), "schemes.kernel")))
        saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
        try:
            for module, name, wrapper in patches:
                setattr(module, name, wrapper)
            yield self
        finally:
            for module, name, original in saved:
                setattr(module, name, original)

    # -- results ----------------------------------------------------------

    def metrics(self, timed_wall_s: float) -> dict:
        """Per-layer metrics of everything recorded so far."""
        with self._lock:
            logs = list(self._logs)
            main = self._main_log
            operators = dict(self._operators)
        total, self_time, calls, counts = (defaultdict(float), defaultdict(float),
                                           defaultdict(int), defaultdict(int))
        batch_s, rung_s, build_s = [], defaultdict(float), 0.0
        for log in logs:
            for kind, v in log.total.items():
                total[kind] += v
            for kind, v in log.self_time.items():
                self_time[kind] += v
            for kind, v in log.calls.items():
                calls[kind] += v
            for name, v in log.counts.items():
                counts[name] += v
            batch_s += log.batch_s
            build_s += log.build_s
            for k, v in log.rung_s.items():
                rung_s[k] += v

        def layer_self(layer):
            return sum((v for kind, v in self_time.items() if _LAYER_OF[kind] == layer), 0.0)

        draws = counts["randomness.draws"]
        steps = counts["models.b_elems"]
        b_calls = counts["models.b_calls"]
        apply_rows = counts["mollifier.apply_rows"]
        estimator_self = layer_self("weak_error") + layer_self("functional_calculus") + layer_self("schemes")
        m = {
            "randomness.draws": draws,
            "randomness.draw_s": total["randomness.draw"],
            "randomness.ns_per_draw": _ns(total["randomness.draw"], draws),
            "randomness.streams": calls["randomness.stream"],
            "randomness.stream_s": total["randomness.stream"],
            "models.coeff_calls": calls["models.coeff"],
            "models.coeff_elems": counts["models.b_elems"] + counts["models.other_elems"],
            "models.coeff_s": total["models.coeff"],
            "schemes.sample_steps": steps,
            "schemes.rows_per_step": steps / b_calls if b_calls else 0.0,
            "schemes.ns_per_sample_step": _ns(estimator_self, steps),
            "mollifier.lookups": calls["mollifier.lookup"],
            "mollifier.builds": counts["mollifier.builds"],
            "mollifier.build_s": build_s,
            "mollifier.operator_bytes": sum(operators.values()),
            "mollifier.apply_rows": apply_rows,
            "mollifier.apply_s": total["mollifier.apply"],
            "mollifier.ns_per_apply_row": _ns(total["mollifier.apply"], apply_rows),
            "functionals.rows": counts["functionals.rows"],
            "functionals.eval_s": total["functionals.eval"],
        }
        for k in range(N_RUNG_SLOTS):
            m[f"weak_error.rung_s.{k}"] = rung_s.get(k, 0.0)
        m.update({
            "weak_error.self_s": layer_self("weak_error"),
            "weak_error.samples": counts["weak_error.samples"],
            "weak_error.excluded": counts["weak_error.excluded"],
            "functional_calculus.kolmogorov_s": total["functional_calculus.kolmogorov"],
            "functional_calculus.error_representation_s": total["functional_calculus.error_representation"],
            "functional_calculus.self_s": layer_self("functional_calculus"),
            "functional_calculus.inner_paths": counts["functional_calculus.paths"],
            "parallel.batches": calls["weak_error.batch"],
            "parallel.map_s": total["parallel.map"],
            "parallel.busy_s": total["weak_error.batch"],
            "parallel.efficiency": (
                total["weak_error.batch"] / self.map_capacity_s if self.map_capacity_s else 0.0
            ),
            "parallel.straggler_ratio": (
                max(batch_s) / statistics.median(batch_s) if batch_s else 0.0
            ),
            "trace.unattributed_frac": (
                (timed_wall_s - main.top_level_s) / timed_wall_s if main and timed_wall_s else 0.0
            ),
        })
        return m


def _ns(seconds: float, n: int) -> float:
    return seconds * 1e9 / n if n else 0.0


def _rows(values) -> int:
    """Rows of a (..., n) array: the number of paths or probe vectors."""
    v = np.asarray(values)
    return int(v.size // v.shape[-1]) if v.ndim else 1


class _CountingGenerator:
    """Delegates to a numpy Generator, timing and counting Gaussian draws."""

    def __init__(self, gen: np.random.Generator, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        log, t0 = self._tracer.begin()
        try:
            out = self._gen.standard_normal(*args, **kwargs)
        finally:
            self._tracer.end(log, t0, "randomness.draw")
        log.counts["randomness.draws"] += int(np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class _TimedOperator(np.ndarray):
    """View of a mollifier operator; ``x @ view`` runs inside a span.

    Views derived from it (``.T``, rows) keep the tracer, so ``x @ A.T``
    is timed too.  The product is computed on the plain ndarray view, with
    the same strides, so its value is that of the untraced call.
    """

    def __array_finalize__(self, obj):
        self._tracer = getattr(obj, "_tracer", None)

    def __rmatmul__(self, other):
        tracer = self._tracer
        plain = self.view(np.ndarray)
        if tracer is None:
            return np.matmul(other, plain)
        log, t0 = tracer.begin()
        try:
            out = np.matmul(other, plain)
        finally:
            tracer.end(log, t0, "mollifier.apply")
        log.counts["mollifier.apply_rows"] += _rows(other)
        return out
