"""The benchmark's three workloads, their correctness oracles and digests.

A workload is built (set-up) from a seed, a repetition index, a budget and
a set of hooks that may wrap the model, functional and seed objects for
tracing; its outputs are a pure function of the seed and ``streams``, the
stream ids it draws from.  The two ladders draw the same streams in every repetition:
their oracles are 4-SE tests, and repeating one seed's draws keeps the
chance of a false alarm per run at that of a single repetition.  The nested
checks draw fresh streams per repetition, so that the sine residual's
squared standard error can be pooled over the repetitions.  ``run()`` is
the timed phase and calls the library only through module attributes of
``weak_error`` and ``functional_calculus``, which the tracer can wrap.
``check()`` turns the outputs into one pass/fail entry per operation (a
rung or a check), and ``digest()`` hashes every numeric output.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

import weakpathlab as wpl
from weakpathlab import functional_calculus, weak_error
from weakpathlab.core_paths import DiscretePath, PathMode, TimeGrid

LADDER = tuple(2.0**-k for k in range(2, 7))


class NoHooks:
    """Identity hooks: the objects the library sees in an untraced run."""

    def model(self, model):
        return model

    def functional(self, f):
        return f

    def seed(self, seed):
        return seed


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def integral_square() -> wpl.PathFunctional:
    return wpl.integral_functional(
        lambda u: u**2, lambda u: 2.0 * u, lambda u: 2.0 + 0.0 * u, name="integral-square"
    )


def euler_product_moment(theta, sigma, xi0, delta, t1, t2) -> float:
    """Exact E[Y(t1) Y(t2)] of the Euler chain for linear drift, t1 <= t2 on nodes."""
    a = 1.0 - theta * delta
    k1, k2 = round(t1 / delta), round(t2 / delta)
    var = 0.0
    for _ in range(k1):
        var = a**2 * var + sigma**2 * delta
    return a ** (k2 - k1) * var + xi0**2 * a ** (k1 + k2)


def ou_product_moment(theta, sigma, xi0, t1, t2) -> float:
    """Exact E[X(t1) X(t2)] of the OU process started at xi0, t1 <= t2."""
    cov = sigma**2 / (2 * theta) * math.exp(-theta * (t2 - t1)) * (1 - math.exp(-2 * theta * t1))
    return cov + xi0**2 * math.exp(-theta * (t1 + t2))


def digest(outputs) -> str:
    """sha256 over the repr of every number in ``outputs``, in order."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, dict):
            for k in sorted(v):
                h.update(f"{k}=".encode())
                feed(v[k])
        elif isinstance(v, (list, tuple)):
            h.update(b"[")
            for x in v:
                feed(x)
            h.update(b"]")
        else:
            h.update(repr(v).encode() + b";")

    feed(outputs)
    return h.hexdigest()


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _rung(p) -> dict:
    return {
        "delta": float(p.delta),
        "n_samples": int(p.n_samples),
        "bias": float(p.bias),
        "std_error": float(p.std_error),
        "excluded": int(p.excluded),
    }


class LadderOU:
    """Criterion 1 scaled down: the closed-form weak-rate ladder, threaded."""

    name = "ladder-ou"
    OPS = tuple(f"rung-{k}" for k in range(len(LADDER)))
    THETA, SIGMA, XI0, T1, T2 = 1.0, 1.0, 1.0, 0.5, 1.0

    def __init__(self, seed: int, rep: int = 0, n_base: int = 20000, hooks=NoHooks()):
        self.streams = [0]
        self.budget = {"n_base": n_base, "deltas": list(LADDER), "threads": nproc()}
        self.exp = wpl.RateExperiment(
            model=hooks.model(wpl.ou_model(self.THETA, self.SIGMA, self.XI0)),
            functional=hooks.functional(wpl.product_functional(self.T1, self.T2)),
            horizon=1.0,
            deltas=LADDER,
            n_base=n_base,
            reference=wpl.ClosedFormReference(),
            seed=hooks.seed(wpl.SeedSpec(seed)),
            threads=nproc(),
        )

    def run(self) -> dict:
        rep = weak_error.weak_rate_experiment(self.exp)
        return {
            "rungs": [_rung(p) for p in rep.rungs],
            "rate": rep.fitted_rate,
            "rate_ci": list(rep.rate_ci) if rep.rate_ci else None,
            "signal_rungs": rep.signal_rungs,
            "status": rep.status,
        }

    def sample_steps(self) -> int:
        """Sigma_k n_k N_k: Gaussian draws and Euler sample-steps of the ladder."""
        return sum(
            self.exp.n_samples(k) * self.exp.grid(k).n_intervals for k in range(len(LADDER))
        )

    def check(self, out: dict) -> list:
        exact = ou_product_moment(self.THETA, self.SIGMA, self.XI0, self.T1, self.T2)
        ops = []
        for k, r in enumerate(out["rungs"]):
            oracle = (
                euler_product_moment(self.THETA, self.SIGMA, self.XI0, r["delta"], self.T1, self.T2)
                - exact
            )
            z = abs(r["bias"] - oracle) / r["std_error"] if r["std_error"] > 0 else math.inf
            ok = _finite(r["bias"], r["std_error"]) and r["excluded"] == 0 and z <= 4.0
            ops.append((f"rung-{k}", ok, f"|bias-oracle|={z:.2f} SE excluded={r['excluded']}"))
        return ops

    @staticmethod
    def primary_se(out: dict) -> float:
        return out["rungs"][-1]["std_error"]


class FineGridMollified:
    """Mollified integral functional of the sine model against a 64x fine grid."""

    name = "finegrid-mollified"
    DELTAS = (1 / 8, 1 / 16, 1 / 32)
    OPS = ("rung-0", "rung-1", "rung-2", "spread")

    def __init__(self, seed: int, rep: int = 0, n_base: int = 3500, hooks=NoHooks()):
        self.streams = [0]
        self.budget = {"n_base": n_base, "deltas": list(self.DELTAS), "fine_factor": 64,
                       "eps": 0.25, "threads": 1}
        self.exp = wpl.RateExperiment(
            model=hooks.model(wpl.sine_model(a=0.5, c=1.0, xi0=0.5)),
            functional=hooks.functional(integral_square()),
            horizon=1.0,
            deltas=self.DELTAS,
            n_base=n_base,
            reference=wpl.FineGridReference(64),
            seed=hooks.seed(wpl.SeedSpec(seed)),
            eps=0.25,
            threads=1,
        )

    def run(self) -> dict:
        return {
            "rungs": [_rung(weak_error.coupled_bias(self.exp, k)) for k in range(len(self.DELTAS))]
        }

    def check(self, out: dict) -> list:
        """Criterion-2 rules: no exclusions, every |bias| > 4 SE, and the
        |bias|/delta spread at most 3."""
        ops = []
        for k, r in enumerate(out["rungs"]):
            ok = (
                _finite(r["bias"], r["std_error"])
                and r["excluded"] == 0
                and abs(r["bias"]) > 4.0 * r["std_error"]
            )
            z = abs(r["bias"]) / r["std_error"] if r["std_error"] > 0 else math.inf
            ops.append((f"rung-{k}", ok, f"|bias|={z:.2f} SE excluded={r['excluded']}"))
        ratios = [abs(r["bias"]) / r["delta"] for r in out["rungs"]]
        spread = max(ratios) / min(ratios) if min(ratios) > 0 else math.inf
        ops.append(("spread", spread <= 3.0, f"|bias|/delta spread={spread:.3f}"))
        return ops

    @staticmethod
    def primary_se(out: dict) -> float:
        return out["rungs"][-1]["std_error"]


class NestedChecks:
    """The F_t machinery: two Kolmogorov residuals and the error representation."""

    name = "nested-checks"
    OPS = ("kolmogorov-sine-integral", "kolmogorov-ou-product", "error-representation")

    def __init__(self, seed: int, rep: int = 0, n_outer: int = 250, n_outer_ou: int = 100,
                 n_outer_er: int = 64, hooks=NoHooks()):
        self.streams = [3 * rep, 3 * rep + 1, 3 * rep + 2]
        self.budget = {"n_outer_sine": n_outer, "n_outer_ou": n_outer_ou, "n_inner": 1000,
                       "n_outer_error_rep": n_outer_er, "n_inner_error_rep": 256, "threads": 1}
        fine = wpl.make_uniform_grid(1.0, 128)

        def prefix(t, value):
            i = fine.index_of(t)
            return DiscretePath(TimeGrid(fine.nodes[: i + 1]), np.full(i + 1, value), PathMode.LINEAR)

        sine = hooks.model(wpl.sine_model(a=0.5, c=1.0, xi0=0.5))
        ou = hooks.model(wpl.ou_model(theta=1.0, sigma=1.0, xi0=1.0))
        eps = 2.0 / 128
        self.kolmogorov = [
            ("kolmogorov-sine-integral",
             (sine, prefix(0.5, 0.5), hooks.functional(integral_square()), eps, 1000,
              hooks.seed(wpl.SeedSpec(seed, self.streams[0])), fine), n_outer),
            ("kolmogorov-ou-product",
             (ou, prefix(0.25, 1.0), hooks.functional(wpl.product_functional(0.6, 1.0)), eps, 1000,
              hooks.seed(wpl.SeedSpec(seed, self.streams[1])), fine), n_outer_ou),
        ]
        self.error_rep = (
            ou, hooks.functional(wpl.point_functional(0.25)), 2.0 * 0.25 / 128,
            wpl.make_uniform_grid(0.25, 2), n_outer_er, 256,
            hooks.seed(wpl.SeedSpec(seed, self.streams[2])),
        )

    def run(self) -> dict:
        out = {}
        for name, args, n_outer in self.kolmogorov:
            rep = functional_calculus.kolmogorov_residual(*args, n_outer=n_outer)
            out[name] = {
                "residual": rep.residual,
                "tolerance": rep.tolerance,
                "passed": rep.passed,
                "components": dict(rep.components),
            }
        rep = functional_calculus.error_representation_sides(
            *self.error_rep, fine_factor=64, quad_per_interval=4
        )
        out["error-representation"] = {
            "lhs": [rep.lhs.value, rep.lhs.std_error],
            "rhs": [rep.rhs.value, rep.rhs.std_error],
            "diff": rep.diff,
            "diff_std_error": rep.diff_std_error,
            "passed": rep.passed,
        }
        return out

    def check(self, out: dict) -> list:
        ops = []
        for name, res in out.items():
            finite = _finite(*_numbers(res))
            ops.append((name, bool(res["passed"]) and finite, f"passed={res['passed']} finite={finite}"))
        return ops

    @staticmethod
    def primary_se(out: dict) -> float:
        return out["kolmogorov-sine-integral"]["components"]["std_error"]


def _numbers(v):
    """Every int or float in nested dicts and lists; flags are not numbers."""
    if isinstance(v, dict):
        for x in v.values():
            yield from _numbers(x)
    elif isinstance(v, (list, tuple)):
        for x in v:
            yield from _numbers(x)
    elif isinstance(v, (int, float)) and not isinstance(v, bool):
        yield v


WORKLOADS = {w.name: w for w in (LadderOU, FineGridMollified, NestedChecks)}
