"""One repetition of a workload in a fresh process; prints one JSON line.

    python3 perfbench/child.py --workload NAME --seed N [--rep R] [--trace] [--setup-only]
    python3 perfbench/child.py --micro

Set-up (import of weakpathlab plus construction of the workload) and the
timed phase are measured here; peak RSS is this process's ``ru_maxrss`` at
the end, which is why every repetition gets its own process: the mollifier
caches are process-global.
"""

import argparse
import json
import os
import resource
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
UNATTRIBUTED_MAX = 0.05  # share of the timed phase outside every top-level span


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _import_package():
    sys.path.insert(0, SRC)
    import weakpathlab

    if os.path.dirname(os.path.abspath(weakpathlab.__file__)) != os.path.join(SRC, "weakpathlab"):
        raise ImportError(f"weakpathlab imported from {weakpathlab.__file__}, not from {SRC}")


def run_rep(name: str, seed: int, rep: int, trace: bool, setup_only: bool) -> dict:
    t0 = perf_counter()
    _import_package()
    import workloads

    hooks, scope = workloads.NoHooks(), nullcontext()
    if trace:
        import tracing

        hooks = tracing.Tracer()
        scope = hooks.installed()
    workload = workloads.WORKLOADS[name](seed, rep, hooks=hooks)
    setup_s = perf_counter() - t0
    result = {"setup_s": setup_s}
    if setup_only:
        return result

    c0, t1 = _cpu_s(), perf_counter()
    with scope:
        try:
            out = workload.run()
        except Exception:
            traceback.print_exc()
            out = None
    wall_s = perf_counter() - t1
    cpu_s = _cpu_s() - c0

    if out is None:
        ops = [(op, False, "raised") for op in workload.OPS]
        result.update(digest=None, primary_se=None)
    else:
        ops = workload.check(out)
        result.update(digest=workloads.digest(out), primary_se=workload.primary_se(out))
    if trace:
        layers = hooks.metrics(wall_s)
        ops += _trace_checks(workload, layers)
        result["layers"] = layers
    result.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        ops=ops,
        streams=workload.streams,
        budget=workload.budget,
        environment=_environment(),
    )
    return result


def _trace_checks(workload, layers: dict) -> list:
    """Counts that validate the tracing itself."""
    frac = layers["trace.unattributed_frac"]
    checks = [("trace-unattributed", 0.0 <= frac <= UNATTRIBUTED_MAX, f"unattributed={frac:.4f}")]
    if hasattr(workload, "sample_steps"):  # draws and sample-steps known in closed form
        want = workload.sample_steps()
        draws, steps = layers["randomness.draws"], layers["schemes.sample_steps"]
        lookups = layers["mollifier.lookups"]
        checks.append((
            "trace-counts",
            draws == steps == want and lookups == 0,
            f"draws={draws} sample_steps={steps} expected={want} mollifier_lookups={lookups}",
        ))
    return checks


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--micro", action="store_true")
    args = p.parse_args(argv)
    if args.micro:
        _import_package()
        import micro

        result = {"layers": micro.measure()}
    else:
        result = run_rep(args.workload, args.seed, args.rep, args.trace, args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
