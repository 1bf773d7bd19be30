"""One benchmark run: set-up timing, the workload's calls, the result line."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

from raresplit import SchedulingError

from replay import ReplayMismatch, Spans, layer_metrics, traced_call
from workloads import WORKLOADS, call_seed, make_problem, run_call

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_RUNS = 3

# A fresh interpreter up to a built problem; prints its own import and
# load times so the parent can split setup_s into layers.
SETUP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
from raresplit.cli import load_preset, preset_problem
t1 = time.perf_counter()
preset_problem(load_preset({table!r}), {gamma!r})
t2 = time.perf_counter()
print(json.dumps({{"import_s": t1 - t0, "load_s": t2 - t1}}))
"""


def measure_setup(wl) -> list[dict]:
    """Time SETUP_RUNS fresh interpreters from start to a built problem.

    The clock stops when the child reports the problem built, so the
    interpreter's teardown is not counted.
    """
    code = SETUP_CHILD.format(src=str(ROOT / "src"), table=wl.table, gamma=wl.gamma)
    runs = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            wall = time.perf_counter() - t0
            child.communicate(timeout=120)
        if child.returncode != 0 or not line:
            raise RuntimeError(f"set-up child exited with code {child.returncode}")
        runs.append({"setup_s": wall, **json.loads(line)})
    return runs


def peak_rss_mb() -> float:
    """Highest RSS of this process and of its waited-for children (pool workers)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def git_commit():
    if not (ROOT / ".git").exists():
        return None  # a plain source checkout carries no commit
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args, wl, calls: int) -> dict:
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "commit": git_commit(), "workload": wl.name, "seed": args.seed,
        "s": args.s, "m": args.m, "workers": wl.workers, "calls": calls,
        "trace": args.trace,
    }


def end_to_end(wl, args, setup) -> tuple[dict, int, int]:
    """Run the workload's calls with tracing off; metrics, attempted, failed."""
    problem, ref = make_problem(wl)
    calls = [run_call(wl, problem, ref, call_seed(args.seed, j), args.s, args.m)
             for j in range(wl.calls(args.seconds))]
    for j, c in enumerate(calls):
        r = c.report
        print(f"call {j}: wall {c.wall_s:.3f} s" + ("" if r is None else
              f", split {r.wall_seconds:.3f} s, mean {r.mean:.4g}, re {r.re}")
              + ("" if c.ok else f", FAILED: {c.error}"),
              file=sys.stderr)
    reports = [c.report for c in calls if c.report is not None and c.report.re is not None]
    if not reports:
        raise SystemExit("no call produced an estimate; nothing to report")
    # RE of the m-replication estimate, its variance pooled over the calls
    re = math.sqrt(statistics.fmean(r.re ** 2 for r in reports))
    metrics = {
        "setup_s": statistics.median(x["setup_s"] for x in setup),
        "wall_s": statistics.median(c.wall_s for c in calls),
        "re": re,
        "wnrv": re * re * statistics.median(r.wall_seconds for r in reports),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, len(calls), sum(not c.ok for c in calls)


def per_layer(wl, args, setup) -> tuple[dict, int, int, Spans]:
    """One traced call: per-layer metrics, attempted, failed, and its spans."""
    problem, ref = make_problem(wl)
    spans = Spans()
    try:
        call = traced_call(wl, problem, ref, call_seed(args.seed, 0), args.s, args.m, spans)
    except (SchedulingError, ValueError) as exc:
        raise SystemExit(f"the traced call failed, no layer to report: {exc}")
    if call["error"]:
        print(f"call 0 FAILED: {call['error']}", file=sys.stderr)
    metrics = {
        "cli.import_s": statistics.median(x["import_s"] for x in setup),
        "cli.load_s": statistics.median(x["load_s"] for x in setup),
        **layer_metrics(wl, call, spans, args.s, args.m),
    }
    return metrics, 1, int(call["error"] is not None), spans


def run(args) -> int:
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    env = environment(args, wl, 1 if args.trace else wl.calls(args.seconds))
    setup = measure_setup(wl)
    try:
        if args.trace:
            metrics, attempted, failed, spans = per_layer(wl, args, setup)
        else:
            metrics, attempted, failed = end_to_end(wl, args, setup)
    except ReplayMismatch as exc:
        print(f"replay mismatch: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
        spans.write(path, {"env": env})
        print(f"spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    # BENCHMARK.json names every metric a run prints, with its unit
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json's "
                           f"{sorted(units)}")
    # a call outside its reference band is a failed call, not a wrong output:
    # the bands are 3-SE tests with a false-alarm rate of their own
    correct = all(math.isfinite(v) for v in metrics.values())
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1
