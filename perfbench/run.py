"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload ladder-ou --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it runs set-up-only probes and then whole repetitions of
the workload, each in a fresh process (``child.py``), for as long as the next
repetition still fits in ``--seconds``, and reports the end-to-end metrics as
medians over repetitions (``se2_cpu_s`` pools the squared standard errors).  With ``--trace 1`` it runs one untraced and one
traced repetition plus the layer microbenchmarks and reports the per-layer
metrics.  The last line of standard output is the result object; the line
before it is the run record.  See README.md for the metric definitions.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("ladder-ou", "finegrid-mollified", "nested-checks")
SETUP_PROBES = 4  # set-up-only processes per untraced run, besides each repetition's own
DEADLINE_S = 170.0  # every run ends well inside the 180 s a run may take


class ChildError(RuntimeError):
    pass


def _spawn(start: float, *args: str) -> dict:
    """Run child.py with ``args`` and return its JSON result."""
    timeout = DEADLINE_S - (perf_counter() - start)
    if timeout <= 0:
        raise ChildError("out of time before starting a repetition")
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, *args], cwd=ROOT, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as e:
        raise ChildError(f"child {args} exceeded {timeout:.0f} s") from e
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise ChildError(f"child {args} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git() -> dict:
    """Commit and dirty flag when ROOT is itself a git work tree."""
    def git(*args):
        return subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30
        )

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return {"sha": None, "dirty": None}
        sha = git("rev-parse", "HEAD").stdout.strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
        return {"sha": sha, "dirty": dirty}
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}


def _tally(reps: list) -> tuple:
    ops = [op for rep in reps for op in rep["ops"]]
    failed = [op for op in ops if not op[1]]
    return len(ops), failed


def measure(workload: str, seed: int, seconds: float, start: float) -> tuple:
    rep_args = ("--workload", workload, "--seed", str(seed))
    setups = [_spawn(start, *rep_args, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    reps = []
    while True:
        t0 = perf_counter()
        reps.append(_spawn(start, *rep_args, "--rep", str(len(reps))))
        took = perf_counter() - t0
        if perf_counter() - start + took > seconds:
            break
    setups += [r["setup_s"] for r in reps]

    def med(key):
        return statistics.median(r[key] for r in reps)

    # squared standard errors are pooled over the repetitions (which may
    # draw fresh streams) before scaling by the typical CPU time
    se2 = [r["primary_se"] ** 2 for r in reps if r["primary_se"] is not None]
    metrics = {
        "wall_s": (med("wall_s"), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mib": (med("peak_rss_mib"), "MiB"),
        "setup_s": (statistics.median(setups), "s"),
        "se2_cpu_s": (statistics.fmean(se2) * med("cpu_s") if se2 else float("nan"), "s"),
    }
    return reps, metrics, {"repetition_wall_s": [r["wall_s"] for r in reps],
                           "setup_samples": len(setups)}


def measure_traced(workload: str, seed: int, start: float) -> tuple:
    rep_args = ("--workload", workload, "--seed", str(seed))
    plain = _spawn(start, *rep_args)
    traced = _spawn(start, *rep_args, "--trace")
    micro = _spawn(start, "--micro")
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    layers.update(micro["layers"])
    metrics = {name: (value, _unit(name)) for name, value in layers.items()}
    return [plain, traced], metrics, {"untraced_wall_s": plain["wall_s"],
                                      "traced_wall_s": traced["wall_s"]}


def _unit(name: str) -> str:
    if name.startswith("micro.mollifier_build_ms"):
        return "ms"
    if name.endswith("_s") or ".rung_s." in name:
        return "s"
    if "ns_per" in name:
        return "ns"
    if name.endswith("_bytes") or name.startswith("micro.mollifier_dense_bytes"):
        return "bytes"
    if name.endswith(("_frac", ".efficiency", "_ratio")):
        return "ratio"
    if name.endswith("rows_per_step"):
        return "rows"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "weakpathlab", "__init__.py")):
        print(f"error: no weakpathlab sources under {ROOT}/src", file=sys.stderr)
        return 2

    start = perf_counter()
    try:
        if args.trace:
            reps, metrics, timing = measure_traced(args.workload, args.seed, start)
        else:
            reps, metrics, timing = measure(args.workload, args.seed, args.seconds, start)
    except ChildError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted, failed = _tally(reps)
    digests = [r["digest"] for r in reps]
    # repetitions that draw the same streams must give the same digest; this
    # covers the traced repetition, which repeats the untraced one
    by_streams = {}
    for r in reps:
        by_streams.setdefault(tuple(r["streams"]), set()).add(r["digest"])
    reproduced = all(len(d) == 1 for d in by_streams.values())
    correct = not failed and None not in digests and reproduced
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "git": _git(),
        "nproc": len(os.sched_getaffinity(0)),
        "budget": reps[0]["budget"],
        "environment": reps[0]["environment"],
        "results_digest": digests,  # one per repetition, in order
        "failed_operations": failed,
        "error_rate": len(failed) / attempted,
        **timing,
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
