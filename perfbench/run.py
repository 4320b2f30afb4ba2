#!/usr/bin/env python3
"""npivtest benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
Prints the metrics of one workload, one per line, and as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones (see
BENCHMARK.json and perfbench/README.md).
"""

from __future__ import annotations

import os

# One BLAS thread per process, so that jobs 2 runs exactly two threads on two cores.
# Set before numpy loads, here and (inherited) in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170


def child(args, timeout) -> float:
    """Run worker.py in a fresh interpreter and return its wall time from start to exit.

    Its stdout goes to our stderr, so that our last line stays the result. The
    wait blocks in waitpid (a watchdog kills the child on timeout), because
    Popen.wait(timeout) polls and would round the time up to its poll interval.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"worker {args[0]} exited with code {code}")
    return wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "npivtest" / "__init__.py").is_file():
        print(f"error: no npivtest sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    workdir = WORK / wl.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return run_workload(wl, args, workdir)
    finally:
        for path in workdir.iterdir():
            if not path.name.startswith("result"):
                path.unlink()


def run_workload(wl, args, workdir: Path) -> int:
    t0 = time.perf_counter()
    plan = wl.plan(args.seed, workdir)
    plan["seconds"] = args.seconds
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    print(f"inputs: {len(plan['ops'])} operations planned in {time.perf_counter() - t0:.3f} s "
          f"(input generation, not a metric)")

    result_path = workdir / ("result-trace.json" if args.trace else "result.json")
    if args.trace:
        child(["trace", plan_path, result_path], CHILD_TIMEOUT_S)
        res = json.loads(result_path.read_text(encoding="utf-8"))
        return report_trace(wl, res)

    setup = [child(["setup", plan_path], 60) for _ in range(SETUP_PROBES)]
    child(["measure", plan_path, result_path], CHILD_TIMEOUT_S)
    res = json.loads(result_path.read_text(encoding="utf-8"))
    return report_e2e(wl, res, setup)


def print_env(env: dict):
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))


def emit(correct: bool, attempted: int, failed: int, metrics: dict):
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def report_e2e(wl, res: dict, setup: list[float]) -> int:
    print_env(res["environment"])
    for msg in res["problems"]:
        print(f"check failed: {msg}")
    metrics = {
        "call_s_p50": (res["call_s_p50"], "s"),
        "call_s_tail": (res["call_s_tail"], "s"),
        "reps_per_s": (res["reps_per_s"], "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (res["peak_rss_mib"], "MiB"),
    }
    notes = {
        "call_s_tail": f"p{res['tail_percentile']:.1f} of {res['ops']} operations",
        "call_s_p50": f"median of {res['ops']} operations",
        "reps_per_s": f"{res['reps_ok']} {wl.unit} in {res['wall_s']:.3f} s",
        "setup_s": f"median of {len(setup)} fresh processes: " + ", ".join(f"{s:.3f}" for s in setup),
        "peak_rss_mib": "max of self and children, timed phase",
    }
    for name, (value, u) in metrics.items():
        print(f"{wl.name} {name} = {value:.6g} {u}  ({notes[name]})")
    print(f"{wl.name} failed_share = {res['failed'] / res['attempted']:.6g} ratio  "
          f"({res['failed']} of {res['attempted']} {wl.unit})")
    emit(res["failed"] == 0 and not res["problems"], res["attempted"], res["failed"],
         {name: {"value": value, "unit": u} for name, (value, u) in metrics.items()})
    return 0


def report_trace(wl, res: dict) -> int:
    print_env(res["environment"])
    passes = [res["base"], res["traced"]] + ([res["other_jobs"]] if "other_jobs" in res else [])
    problems = [msg for p in passes for msg in p["problems"]]
    if not res["identical_outputs"]:
        problems.append("traced and untraced runs of the same operations gave different outputs")
    for msg in problems:
        print(f"check failed: {msg}")
    if res["missing_functions"]:
        print("not present in this build (reported as 0): " + ", ".join(res["missing_functions"]))
    b = res["bases"]
    print(f"bases: {b['ops']} operations, {b['candidates']} candidates, {b['spans']} spans; "
          f"eval_design calls {b['eval_design_calls']}, orthonormal_range calls {b['orthonormal_range_calls']}; "
          f"untraced jobs-1 wall {b['jobs1_wall_s']:.3f} s, traced wall {b['traced_wall_s']:.3f} s"
          + (f", untraced jobs-2 wall {b['jobs2_wall_s']:.3f} s" if b["jobs2_wall_s"] else
             "; sim.parallel_efficiency is 0: this workload runs no process pool"))
    print("basis.eval_design.cells and linalg.orthonormal_range.cells are computed from array shapes")
    metrics = {}
    for name, value in res["layer"].items():
        unit = unit_of(name)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{wl.name} {name} = {value:.6g} {unit}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if not res["identical_outputs"]:
        failed = max(failed, 1)
    emit(not problems and failed == 0, attempted, failed, metrics)
    return 0


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith("_s"):
        return "s/op"
    if name.endswith(".cells"):
        return "cells/op"
    if name in ("adaptive.candidates", "npiv.cone_project.active_rows"):
        return "count/op"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
