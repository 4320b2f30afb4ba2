"""Self-test of the benchmark.

    python3 -m pytest perfbench/tests -q      (from the repository root)

Checks that tracing does not change outputs, that the traced call counts are
the ones this version of npivtest makes, that per-layer self times fit in the
operation's wall time, and that the correctness check catches a changed result.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from layers import Tracer  # noqa: E402
from worker import import_package, outcomes, run_pass, tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PKG = import_package()

# Calls per operation for the first operation of each workload's seed-0 plan,
# at the npivtest version the benchmark was defined on. An intended change to
# the call graph updates these numbers together with that change.
EXPECTED_CALLS = {
    "test-n20k": {
        "cli.load_csv_dataset": 1, "cli.render_report": 1,
        "randdist.chisq_quantile": 2, "randdist.chisq_sf": 2,
        "adaptive.build_grid": 1, "adaptive.adaptive_scan": 1, "adaptive.compute_shat": 2, "adaptive.compute_D": 2,
        "adaptive.compute_vhat": 2, "adaptive.gamma_hat": 2, "adaptive.decide": 1,
        "npiv.fit_from_design": 2, "npiv.fit_restricted_cone": 2, "npiv.cone_project": 2,
        "basis.eval_design": 10, "basis.deriv_constraints": 2,
        "linalg.orthonormal_range": 2, "linalg.pinv": 2, "linalg.sym_inv_sqrt": 4,
    },
    "mc-t1-n500": {
        "sim.reproduce": 1, "dgp.generate": 25,
        "randdist.mvn_sample": 25, "randdist.chisq_quantile": 78, "randdist.chisq_sf": 78,
        "adaptive.build_grid": 25, "adaptive.adaptive_scan": 25, "adaptive.compute_shat": 26, "adaptive.compute_D": 26,
        "adaptive.compute_vhat": 26, "adaptive.gamma_hat": 26, "adaptive.decide": 75,
        "npiv.fit_from_design": 26, "npiv.fit_restricted_cone": 26, "npiv.cone_project": 26,
        "basis.eval_design": 130, "basis.deriv_constraints": 26,
        "linalg.orthonormal_range": 26, "linalg.pinv": 26, "linalg.sym_inv_sqrt": 52,
    },
    "mc-suppd-n5000-jobs2": {
        "sim.reproduce": 1, "dgp.generate": 16,
        "randdist.mvn_sample": 16, "randdist.chisq_quantile": 47, "randdist.chisq_sf": 47,
        "adaptive.build_grid": 8, "adaptive.adaptive_scan": 8, "adaptive.image_space_scan": 8,
        "adaptive.compute_shat": 15, "adaptive.compute_D": 15, "adaptive.compute_vhat": 15, "adaptive.gamma_hat": 15,
        "adaptive.decide": 16,
        "npiv.fit_from_design": 15, "npiv.fit_restricted_parametric": 47,
        "basis.eval_design": 459, "basis.tensor_design": 144,
        "linalg.orthonormal_range": 94, "linalg.pinv": 62, "linalg.sym_inv_sqrt": 62,
    },
}


def first_op(name: str, workdir: Path) -> tuple:
    wl = WORKLOADS[name]
    plan = wl.plan(0, workdir, count=1)
    return wl, plan["ops"][:1]


def traced_pass(wl, ops):
    tracer = Tracer()
    tracer.install()
    try:
        p = run_pass(wl, PKG, ops, 1, tracer=tracer, out_suffix=".traced")
    finally:
        tracer.uninstall()
    return tracer, p


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request, tmp_path_factory):
    wl, ops = first_op(request.param, tmp_path_factory.mktemp(request.param))
    plain = run_pass(wl, PKG, ops, 1)
    tracer, p = traced_pass(wl, ops)
    return wl, plain, p, tracer


def test_tracing_leaves_outputs_byte_identical(traced):
    wl, plain, p, _ = traced
    (untraced_out,) = outcomes(wl, PKG, plain, None)
    (traced_out,) = outcomes(wl, PKG, p, None, out_suffix=".traced")
    assert not untraced_out.problems and not traced_out.problems
    assert untraced_out.canonical and untraced_out.canonical == traced_out.canonical


def test_call_counts_match_this_version(traced):
    wl, _, _, tracer = traced
    calls = {name: v[0] for name, v in tracer.per_op()[0].items() if name != "op"}
    assert calls == EXPECTED_CALLS[wl.name]
    if wl.name == "test-n20k":
        # 5 design evaluations and 1 instrument factorization per candidate J
        candidates = tracer.counts["adaptive.candidates"]
        assert calls["basis.eval_design"] == 5 * candidates
        assert calls["linalg.orthonormal_range"] == candidates


def test_layer_self_times_fit_in_the_operation_wall_time(traced):
    _, _, _, tracer = traced
    walls = tracer.op_walls()
    for op, per in tracer.per_op().items():
        layer_self = sum(v[1] for name, v in per.items() if name != "op")
        assert 0.0 <= layer_self <= walls[op]
        assert all(v[1] >= -1e-9 for v in per.values())


def test_every_listed_function_is_wrapped_and_restored():
    tracer = Tracer()
    tracer.install()
    bound = list(tracer._restore)
    try:
        assert tracer.missing == []
        assert all(getattr(mod, attr) is not original for mod, attr, original in bound)
    finally:
        tracer.uninstall()
    assert all(getattr(mod, attr) is original for mod, attr, original in bound)
    # names copied by `from .basis import eval_design` are wrapped too
    assert {mod.__name__ for mod, attr, _ in bound if attr == "eval_design"} >= {
        "npivtest.basis", "npivtest.adaptive", "npivtest.npiv"}


def test_reference_comparison_catches_a_changed_statistic():
    compare = WORKLOADS["test-n20k"].compare
    ref = {"reject": False, "J_reported": 4, "J_list": [3, 4], "W": [0.5, 0.25], "p_value": [0.3, 0.6]}
    assert compare(dict(ref), ref) == []
    close = dict(ref, W=[0.5 * (1 + 1e-12), 0.25])
    assert compare(close, ref) == []
    moved = dict(ref, W=[0.5 * (1 + 1e-9), 0.25])
    assert len(compare(moved, ref)) == 1
    assert compare(dict(ref, J_list=[3]), ref)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert tail([1.0] * 5 + [2.0]) == (2.0, 100.0)
