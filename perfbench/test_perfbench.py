"""The benchmark's own tests: oracles, results digest and tracing counts.

Run with ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import tracing
import workloads
from weakpathlab import functional_calculus, weak_error

HERE = os.path.dirname(os.path.abspath(__file__))


def _rung(delta, bias, se, excluded=0):
    return {"delta": delta, "n_samples": 1000, "bias": bias, "std_error": se, "excluded": excluded}


def _ok(ops):
    return {name: ok for name, ok, _ in ops}


def test_euler_product_moment_matches_geometric_sums():
    theta, sigma, xi0, delta = 1.0, 1.0, 1.0, 0.125
    a = 1.0 - theta * delta
    k1, k2 = 4, 8
    second = a ** (2 * k1) * xi0**2 + sigma**2 * delta * sum(a ** (2 * j) for j in range(k1))
    want = a ** (k2 - k1) * second
    got = workloads.euler_product_moment(theta, sigma, xi0, delta, 0.5, 1.0)
    assert got == pytest.approx(want, rel=1e-14)
    # the Euler chain converges to the OU law as delta -> 0
    fine = workloads.euler_product_moment(theta, sigma, xi0, 2.0**-12, 0.5, 1.0)
    assert fine == pytest.approx(workloads.ou_product_moment(theta, sigma, xi0, 0.5, 1.0), abs=1e-3)


def test_ladder_oracle_accepts_exact_bias_and_rejects_defects():
    w = workloads.LadderOU(1, n_base=2)
    exact = workloads.ou_product_moment(1.0, 1.0, 1.0, 0.5, 1.0)
    rungs = []
    for delta in workloads.LADDER:
        oracle = workloads.euler_product_moment(1.0, 1.0, 1.0, delta, 0.5, 1.0) - exact
        rungs.append(_rung(delta, oracle, 1e-3))
    assert all(_ok(w.check({"rungs": rungs})).values())

    rungs[1] = dict(rungs[1], bias=rungs[1]["bias"] + 5e-3)  # 5 SE off the oracle
    rungs[2] = dict(rungs[2], excluded=1)
    rungs[3] = dict(rungs[3], bias=math.nan)
    ok = _ok(w.check({"rungs": rungs}))
    assert ok == {"rung-0": True, "rung-1": False, "rung-2": False, "rung-3": False, "rung-4": True}


def test_finegrid_checks_signal_exclusions_and_spread():
    w = workloads.FineGridMollified(1, n_base=2)
    good = [_rung(1 / 8, 0.0135, 1e-3), _rung(1 / 16, 0.0075, 5e-4), _rung(1 / 32, 0.004, 2e-4)]
    assert all(_ok(w.check({"rungs": good})).values())

    weak = [dict(good[0], bias=3e-3), good[1], dict(good[2], excluded=2)]
    ok = _ok(w.check({"rungs": weak}))
    assert not ok["rung-0"] and ok["rung-1"] and not ok["rung-2"]
    assert not ok["spread"]  # 0.024 vs 0.128 per unit delta


def test_nested_checks_require_passed_and_finite():
    w = workloads.NestedChecks(1, n_outer=2, n_outer_ou=2, n_outer_er=2)
    out = {
        "kolmogorov-sine-integral": {"residual": 0.1, "tolerance": 0.2, "passed": True,
                                     "components": {"std_error": 0.01}},
        "kolmogorov-ou-product": {"residual": 0.3, "tolerance": 0.2, "passed": False,
                                  "components": {"std_error": 0.01}},
        "error-representation": {"lhs": [0.1, math.inf], "rhs": [0.1, 0.01], "diff": 0.0,
                                 "diff_std_error": 0.01, "passed": True},
    }
    assert _ok(w.check(out)) == {
        "kolmogorov-sine-integral": True,
        "kolmogorov-ou-product": False,
        "error-representation": False,
    }


def test_digest_sees_every_digit_and_the_structure():
    out = {"rungs": [_rung(0.25, 0.1, 0.01)], "rate": None}
    assert workloads.digest(out) == workloads.digest({"rate": None, "rungs": [_rung(0.25, 0.1, 0.01)]})
    nudged = {"rungs": [_rung(0.25, float(np.nextafter(0.1, 1.0)), 0.01)], "rate": None}
    assert workloads.digest(nudged) != workloads.digest(out)
    assert workloads.digest({"a": [1, 2]}) != workloads.digest({"a": [[1], 2]})


def _traced(make):
    tracer = tracing.Tracer()
    w = make(tracer)
    with tracer.installed():
        out = w.run()
    return w, out, tracer.metrics(1.0)


def test_traced_ladder_reproduces_digest_and_counts_exactly():
    # n_base 1024 gives two 131072-row batches on the finest rung
    plain = workloads.LadderOU(5, n_base=1024).run()
    w, out, m = _traced(lambda t: workloads.LadderOU(5, n_base=1024, hooks=t))
    assert workloads.digest(out) == workloads.digest(plain)
    want = w.sample_steps()
    assert want == sum(1024 * 4**k * 4 * 2**k for k in range(5))
    assert m["randomness.draws"] == m["schemes.sample_steps"] == want
    assert m["mollifier.lookups"] == 0
    assert m["parallel.batches"] == 1 + 1 + 1 + 1 + 2
    assert m["weak_error.samples"] == sum(r["n_samples"] for r in out["rungs"])
    assert m["weak_error.excluded"] == 0
    assert m["functional_calculus.inner_paths"] == 0
    assert all(m[f"weak_error.rung_s.{k}"] > 0 for k in range(5))


def test_traced_finegrid_counts_operators_and_applies():
    plain = workloads.FineGridMollified(6, n_base=20).run()
    _, out, m = _traced(lambda t: workloads.FineGridMollified(6, n_base=20, hooks=t))
    assert workloads.digest(out) == workloads.digest(plain)
    # one operator per coarse grid and one per fine grid
    assert m["mollifier.builds"] == 6
    nodes = [9, 17, 33, 513, 1025, 2049]
    assert m["mollifier.operator_bytes"] == sum(8 * n * n for n in nodes)
    # scheme and reference paths of every sample, each mollified once
    assert m["mollifier.apply_rows"] == m["functionals.rows"] == 2 * (20 + 80 + 320)
    assert m["weak_error.rung_s.3"] == m["weak_error.rung_s.4"] == 0.0


def test_traced_nested_reproduces_digest():
    def make(hooks=workloads.NoHooks()):
        return workloads.NestedChecks(7, n_outer=3, n_outer_ou=3, n_outer_er=2, hooks=hooks)

    plain = make().run()
    _, out, m = _traced(lambda t: make(t))
    assert workloads.digest(out) == workloads.digest(plain)
    assert m["functional_calculus.kolmogorov_s"] > 0
    assert m["functional_calculus.error_representation_s"] > 0
    # sine check: 4 evaluations of 1000 inner paths per outer batch
    assert m["functional_calculus.inner_paths"] >= 2 * 3 * 4 * 1000
    assert m["mollifier.apply_rows"] == 3 * 4 * 1000
    assert m["parallel.batches"] == 0


def test_installed_restores_module_attributes():
    before = (weak_error.coupled_bias, weak_error.mollify_operator,
              functional_calculus.kolmogorov_residual, functional_calculus.euler_values_batch)
    with tracing.Tracer().installed():
        assert weak_error.coupled_bias is not before[0]
    after = (weak_error.coupled_bias, weak_error.mollify_operator,
             functional_calculus.kolmogorov_residual, functional_calculus.euler_values_batch)
    assert after == before


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "ladder-ou",
         "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
