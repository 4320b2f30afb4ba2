"""Child process of the benchmark; run.py starts it once per phase.

    worker.py setup PLAN          import npivtest and run the warm-up operation (set-up probe)
    worker.py measure PLAN OUT    warm up, time operations for the run's seconds, check them
    worker.py trace PLAN OUT      untraced passes, then a traced pass over the same operations

PLAN is the JSON written by run.py; OUT receives this process's result as JSON.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Outcome  # noqa: E402

MIN_OPS = 30  # a timed run's tail percentile is then at least p66


def import_package():
    """Import npivtest from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import npivtest
    import npivtest.cli
    import npivtest.sim

    if Path(npivtest.__file__).resolve().parent != (src / "npivtest").resolve():
        raise SystemExit(f"imported npivtest from {npivtest.__file__}, expected {src}")
    return npivtest


def load_reference(plan: dict) -> list | None:
    path = HERE / "reference" / f"{plan['workload']}.json"
    if plan["seed"] != 0 or not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["ops"]


@dataclass
class Pass:
    """Latencies and results of one pass over a list of operations."""

    ops: list
    latencies: list[float]
    results: list  # (result, error text or None) per operation
    wall: float


def run_pass(wl, pkg, ops, jobs, seconds=None, min_ops=0, tracer=None, out_suffix="") -> Pass:
    """Closed loop with one caller. With seconds, stop at the first cycle boundary after the time is up."""
    latencies, results = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if (seconds is not None and i % wl.cycle == 0 and i >= min_ops
                and time.perf_counter() - start >= seconds):
            break
        result = error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = wl.run(pkg, op, jobs, out_suffix)
            else:
                with tracer.operation(i):
                    result = wl.run(pkg, op, jobs, out_suffix)
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        results.append((result, error))
    wall = time.perf_counter() - start
    return Pass(ops[: len(results)], latencies, results, wall)


def outcomes(wl, pkg, p: Pass, reference, out_suffix=""):
    out = []
    for op, (result, error) in zip(p.ops, p.results):
        ref = reference[op["index"]] if reference is not None and op["index"] < len(reference) else None
        try:
            out.append(wl.outcome(pkg, op, result, error, ref, out_suffix))
        except Exception as exc:  # missing or malformed output fails its operation
            out.append(Outcome(wl.reps_per_op, wl.reps_per_op, [f"unreadable output: {type(exc).__name__}: {exc}"]))
    return out


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mib() -> float:
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, children_kib) / 1024.0


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if no OpenBLAS is loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment(pkg) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "npivtest": pkg.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def summarize(wl, p: Pass, outs) -> dict:
    reps = sum(o.reps for o in outs)
    failed = sum(o.failed for o in outs)
    value, pct = tail(p.latencies)
    problems = [f"op {op['index']}: {msg[:400]}" for op, o in zip(p.ops, outs) for msg in o.problems]
    return {
        "ops": len(p.ops),
        "attempted": reps,
        "failed": failed,
        "reps_ok": reps - failed,
        "wall_s": p.wall,
        "call_s_p50": statistics.median(p.latencies),
        "call_s_tail": value,
        "tail_percentile": pct,
        "reps_per_s": (reps - failed) / p.wall,
        "problems": problems[:20],
    }


def mode_setup(wl, pkg, plan):
    result = wl.run(pkg, plan["warmup"], wl.jobs)
    out = wl.outcome(pkg, plan["warmup"], result, None, None)
    if out.problems:
        raise SystemExit(f"warm-up operation failed: {out.problems[:3]}")


def mode_measure(wl, pkg, plan, seconds):
    wl.run(pkg, plan["warmup"], wl.jobs)
    p = run_pass(wl, pkg, plan["ops"], wl.jobs, seconds=seconds, min_ops=MIN_OPS)
    rss = peak_rss_mib()
    res = summarize(wl, p, outcomes(wl, pkg, p, load_reference(plan)))
    res["peak_rss_mib"] = rss
    return res


def mode_trace(wl, pkg, plan, seconds, spans_path):
    from layers import FUNCTIONS, Tracer

    reference = load_reference(plan)
    wl.run(pkg, plan["warmup"], wl.jobs)
    # half the run's seconds: the passes after this one repeat its operations, at jobs 1 up to twice as slow
    base = run_pass(wl, pkg, plan["ops"], wl.jobs, seconds=seconds / 2)
    base_out = outcomes(wl, pkg, base, reference)
    ops = base.ops
    res = {"base": summarize(wl, base, base_out)}

    # sim.parallel_efficiency: untraced jobs 2 against untraced jobs 1 on the same operations
    jobs1, jobs2, efficiency = base, None, 0.0
    if wl.pooled:
        other = run_pass(wl, pkg, ops, 2 if wl.jobs == 1 else 1)
        res["other_jobs"] = summarize(wl, other, outcomes(wl, pkg, other, reference))
        jobs1, jobs2 = (base, other) if wl.jobs == 1 else (other, base)
        efficiency = jobs1.wall / (2.0 * jobs2.wall)

    # spans recorded in forked workers are lost, so the traced pass runs at jobs 1
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(wl, pkg, ops, 1, tracer=tracer, out_suffix=".traced")
    finally:
        tracer.uninstall()
    traced_out = outcomes(wl, pkg, traced, reference, out_suffix=".traced")
    res["traced"] = summarize(wl, traced, traced_out)
    res["identical_outputs"] = all(a.canonical == b.canonical and a.canonical for a, b in zip(base_out, traced_out))
    res["missing_functions"] = tracer.missing
    tracer.save(spans_path)

    n_ops = len(ops)
    per_op = tracer.per_op()
    calls = {name: sum(per.get(name, (0, 0.0))[0] for per in per_op.values()) for name in tracer.names}
    self_s = {name: sum(per.get(name, (0, 0.0))[1] for per in per_op.values()) for name in tracer.names}
    layer = {}
    for name in FUNCTIONS:
        layer[f"{name}.calls"] = calls[name] / n_ops
        layer[f"{name}.self_s"] = self_s[name] / n_ops
    for name, total in tracer.counts.items():
        layer[name] = total / n_ops
    candidates = tracer.counts["adaptive.candidates"]
    layer["adaptive.design_evals_per_candidate"] = calls["basis.eval_design"] / candidates if candidates else 0.0
    layer["adaptive.factorizations_per_candidate"] = (
        calls["linalg.orthonormal_range"] / candidates if candidates else 0.0)
    layer["sim.parallel_efficiency"] = efficiency
    layer["op.wall_s"] = sum(tracer.op_walls().values()) / n_ops
    layer["op.untraced_s"] = self_s["op"] / n_ops
    layer["trace_overhead_share"] = (traced.wall - jobs1.wall) / jobs1.wall
    res["layer"] = layer
    res["bases"] = {
        "ops": n_ops,
        "candidates": candidates,
        "eval_design_calls": calls["basis.eval_design"],
        "orthonormal_range_calls": calls["linalg.orthonormal_range"],
        "jobs1_wall_s": jobs1.wall,
        "jobs2_wall_s": jobs2.wall if jobs2 else None,
        "traced_wall_s": traced.wall,
        "spans": len(tracer.spans),
    }
    return res


def main(argv):
    mode, plan_path = argv[0], Path(argv[1])
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    wl = WORKLOADS[plan["workload"]]
    pkg = import_package()
    if mode == "setup":
        mode_setup(wl, pkg, plan)
        return 0
    out_path = Path(argv[2])
    if mode == "measure":
        res = mode_measure(wl, pkg, plan, plan["seconds"])
    elif mode == "trace":
        res = mode_trace(wl, pkg, plan, plan["seconds"], out_path.with_suffix(".spans.npz"))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    res["environment"] = environment(pkg)
    out_path.write_text(json.dumps(res), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
