import itertools
import json
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import time
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

import npivtest.adaptive as adaptive_module
import npivtest.npiv as npiv_module
import npivtest.sim as sim_module
from npivtest.dgp import DesignConfig, HSpec, generate
from npivtest.errors import InputError, NumericalError
from npivtest.randdist import RngStream
from npivtest.sim import ExperimentSpec, reproduce, run_experiment


def small_size_spec(**kw):
    base = dict(
        design="I",
        mode="size",
        null="decreasing",
        h_family="mono",
        n_values=(200,),
        xi_values=(0.5,),
        c0_values=(0.1,),
        alphas=(0.05,),
        replications=20,
        k_factor=2,
        master_seed=31,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(InputError):
        small_size_spec(replications=0)
    with pytest.raises(InputError):
        small_size_spec(mode="speed")
    with pytest.raises(InputError):
        small_size_spec(n_values=())
    with pytest.raises(InputError, match=r"n_values has repeated values \[500\]"):
        small_size_spec(n_values=(500, 1000, 500))


def test_spec_json_roundtrip():
    spec = small_size_spec(grid_mode=(3, 4), alphas=(0.10, 0.05))
    again = ExperimentSpec.from_dict(spec.to_dict())
    assert again == spec
    with pytest.raises(InputError):
        ExperimentSpec.from_dict({"mode": "size", "cheese": 1})
    # a spec file that experiment.schema.json accepts carries schema_version 1, as to_dict writes it
    assert spec.to_dict()["schema_version"] == 1
    with pytest.raises(InputError, match="unsupported experiment schema version 2"):
        ExperimentSpec.from_dict({**spec.to_dict(), "schema_version": 2})


def test_single_replication_rate_is_binary():
    summary = run_experiment(small_size_spec(replications=1))
    rate = summary.cells[0].reject_rate[0.05]
    assert rate in (0.0, 1.0)


def test_run_size_outputs_and_se():
    summary = run_experiment(small_size_spec(replications=25, alphas=(0.10, 0.05)))
    cell = summary.cells[0]
    assert cell.replications == 25
    assert cell.failures == 0
    for alpha in (0.10, 0.05):
        p = cell.reject_rate[alpha]
        assert 0.0 <= p <= 1.0
        assert cell.se[alpha] == pytest.approx(np.sqrt(p * (1 - p) / 25), abs=1e-12)
        assert cell.avg_j[alpha] >= 3.0
    rows = summary.rows()
    assert len(rows) == 2
    assert {row["alpha"] for row in rows} == {0.10, 0.05}


def test_run_size_deterministic_rerun():
    a = run_experiment(small_size_spec(replications=15))
    b = run_experiment(small_size_spec(replications=15))
    ra = [dict(row) for row in a.rows()]
    rb = [dict(row) for row in b.rows()]
    assert ra == rb


def test_run_size_parallel_matches_serial():
    spec = small_size_spec(replications=12)
    serial = run_experiment(spec, jobs=1)
    parallel = run_experiment(spec, jobs=2)
    assert serial.rows() == parallel.rows()


def test_power_mode_on_the_mono_family_is_an_input_error():
    for mode in ("power", "size_adjusted_power"):
        with pytest.raises(InputError, match="power experiments use the sin/design2/quad families, not mono"):
            run_experiment(small_size_spec(mode=mode))


@pytest.mark.parametrize("kw", [
    dict(basis="foo"), dict(design="IV"), dict(k_factor=1), dict(xi_values=(1.5,)), dict(n_values=(5,)),
    dict(alphas=(1.5,)), dict(null="wiggly"), dict(h_family="zigzag"), dict(grid_mode="weird"),
    dict(mode="power", h_family="mono"), dict(grid_mode=(1, 2)), dict(basis="cosine"),
    dict(statistic="image-space"), dict(statistic="banana"),
], ids=lambda kw: "-".join(map(str, kw.values())))
def test_spec_values_are_checked_at_construction(kw):
    with pytest.raises(InputError):
        small_size_spec(**kw)


def _without_timings(summary) -> dict:
    d = summary.to_dict()
    d["metadata"] = {k: v for k, v in d["metadata"].items() if k != "timings"}
    return d


@pytest.mark.parametrize("spec", [
    small_size_spec(replications=6, n_values=(200, 300), c0_values=(0.1, 1.0), alphas=(0.10, 0.05)),
    ExperimentSpec(mode="power", h_family="sin", n_values=(300,), xi_values=(0.7,), c_a_values=(0.1, 2.0),
                   c_b_values=(0.0, 1.0), replications=6, master_seed=19),
    ExperimentSpec(design="II", mode="size_adjusted_power", null="increasing", h_family="design2", n_values=(300,),
                   c_a_values=(0.1, 0.5), c_b_values=(0.0, 1.0), alphas=(0.10, 0.05), replications=6,
                   master_seed=17),
], ids=["size", "power", "size_adjusted_power"])
def test_run_experiment_does_not_depend_on_jobs(spec):
    serial = _without_timings(run_experiment(spec, jobs=1))
    assert json.dumps(_without_timings(run_experiment(spec, jobs=2))) == json.dumps(serial)
    if spec.mode == "size_adjusted_power":
        assert all("adjusted_crit" in row for row in serial["cells"])


def test_calibration_and_cell_failures_do_not_depend_on_jobs(monkeypatch):
    # the outcome fails once in the boundary-null run (stream offset + 5) and once in the cell (stream 7)
    failing = {sim_module.CALIBRATION_STREAM_OFFSET + 5, 7}
    current = {}
    stream, outcome = sim_module.RngStream, adaptive_module._structural_outcome

    def recording_stream(seed, stream_id):
        current["id"] = stream_id
        return stream(seed, stream_id)

    def failing_outcome(*args, **kwargs):
        if current["id"] in failing:
            raise NumericalError("injected")
        return outcome(*args, **kwargs)

    monkeypatch.setattr(sim_module, "RngStream", recording_stream)  # the forked workers inherit both
    monkeypatch.setattr(adaptive_module, "_structural_outcome", failing_outcome)
    spec = ExperimentSpec(mode="size_adjusted_power", h_family="sin", n_values=(200,), c_a_values=(1.0,),
                          replications=101, master_seed=17)  # one failure in 101 is within MAX_FAILURE_SHARE
    serial = _without_timings(run_experiment(spec, jobs=1))
    reasons = {"NumericalError: injected": 1}
    assert serial["metadata"]["failures_by_reason"] == [
        {"cell": {"n": 200, "xi": 0.5, "c_a": 0.1, "c_b": 0.0}, "calibration": True, "reasons": reasons},
        {"cell": {"n": 200, "xi": 0.5, "c_a": 1.0, "c_b": 0.0}, "reasons": reasons},
    ]
    assert json.dumps(_without_timings(run_experiment(spec, jobs=2))) == json.dumps(serial)


def test_size_adjusted_power_boundary_calibration():
    # at the null boundary, size-adjusted rejection equals alpha by construction
    spec = ExperimentSpec(
        design="I",
        mode="size_adjusted_power",
        null="decreasing",
        h_family="sin",
        n_values=(200,),
        xi_values=(0.5,),
        c_a_values=(0.1,),  # the boundary itself for c_b = 0
        c_b_values=(0.0,),
        alphas=(0.10,),
        replications=200,
        k_factor=2,
        master_seed=17,
    )
    summary = run_experiment(spec)
    cell = summary.cells[0]
    assert cell.adjusted_crit is not None
    # calibration uses an independent equal-size null run, so the boundary
    # rejection rate is alpha up to two sources of binomial noise
    assert abs(cell.reject_rate[0.10] - 0.10) <= 0.10


def test_power_increases_with_common_random_numbers():
    spec = ExperimentSpec(
        design="I",
        mode="power",
        null="decreasing",
        h_family="sin",
        n_values=(300,),
        xi_values=(0.7,),
        c_a_values=(0.1, 2.0),
        c_b_values=(0.0,),
        alphas=(0.05,),
        replications=30,
        k_factor=2,
        master_seed=19,
    )
    summary = run_experiment(spec)
    low = summary.cell(c_a=0.1).reject_rate[0.05]
    high = summary.cell(c_a=2.0).reject_rate[0.05]
    assert high >= low
    assert high >= 0.5


def test_reproduce_validation():
    with pytest.raises(InputError):
        reproduce("T9", replications=5)
    with pytest.raises(InputError):
        reproduce("T1", replications=0)
    with pytest.raises(InputError):
        reproduce("T1", replications=5, n_values=(123,))


def test_reproduce_t1_rows_carry_published_values():
    out = reproduce("T1", replications=4, seed=3, n_values=(500,), xi_values=(0.5,),
                    c0_values=(0.1,), k_factors=(2,))
    rows = out["rows"]
    rates = [r for r in rows if "metric" not in r]
    assert {r["alpha"] for r in rates} == {0.10, 0.05, 0.01}
    for r in rates:
        assert 0.0 <= r["ours"] <= 1.0
        assert 0.0 <= r["published"] <= 1.0
    jrow = [r for r in rows if r.get("metric") == "avg_J"][0]
    assert jrow["published"] == pytest.approx(3.34)


def test_reproduce_supp_d_has_both_statistics():
    out = reproduce("supp-D", replications=3, seed=5, n_values=(500,), xi_values=(0.5,))
    stats = {row["statistic"] for row in out["rows"]}
    assert stats == {"structural", "image-space"}
    designs = {row["design"] for row in out["rows"]}
    assert designs == {"I", "multivariate"}


def test_lapack_failure_in_one_replication_is_a_counted_failure(monkeypatch):
    # the SVDs of the second replication's fits fail to converge
    datasets = {"made": 0}
    draw, svd = sim_module.draw, np.linalg.svd

    def counting_draw(cfg):
        datasets["made"] += 1
        return draw(cfg)

    def failing_svd(a, *args, **kwargs):
        if datasets["made"] == 2:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(sim_module, "draw", counting_draw)
    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    out = reproduce("T1", replications=100, seed=3, n_values=(500,), xi_values=(0.5,),
                    c0_values=(1.0,), k_factors=(2,))
    (summary,) = out["summaries"].values()
    assert [cell.failures for cell in summary.cells] == [1]
    assert datasets["made"] == 100
    (cell,) = summary.cells
    (reason,) = cell.failures_by_reason
    assert reason.startswith("NumericalError: ") and reason.endswith("SVD did not converge")
    assert summary.metadata["failures_by_reason"] == [{"cell": cell.params, "reasons": {reason: 1}}]
    assert all("failures_by_reason" not in row for row in [*out["rows"], *summary.rows()])


def test_a_replication_whose_sample_cannot_carry_the_minimum_candidate_is_a_counted_failure():
    # at n = 40 a dyadic K = 4 J grid's minimum candidate J = 3 needs K = 12 instrument columns, and 9 of 300
    # replications leave one of them without data: each is counted with its reason, and 9 > 1 % fails the cell
    with pytest.raises(NumericalError) as info:
        run_experiment(ExperimentSpec(n_values=(40,), replications=300, k_factor=4, grid_mode="dyadic"), jobs=1)
    assert str(info.value) == ("cell {'n': 40, 'xi': 0.5, 'c0': 1.0} had 9/300 failed replications (> 1%): "
                               "{\"SingularGramError: instrument gram B'B is numerically singular (dim 12)\": 9}")


def _failing_replications(monkeypatch, failing):
    """Replace sim._verdicts by a wrapper that returns a failure reason on the calls numbered in failing (from
    0): at jobs = 1 on a one-cell spec, call r reads replication r."""
    calls, verdicts = itertools.count(), sim_module._verdicts

    def injected(*args):
        return "NumericalError: injected" if next(calls) in failing else verdicts(*args)

    monkeypatch.setattr(sim_module, "_verdicts", injected)


def test_one_failed_replication_in_a_hundred_is_counted(monkeypatch):
    _failing_replications(monkeypatch, {17})
    (cell,) = run_experiment(small_size_spec(replications=100, n_values=(100,)), jobs=1).cells
    assert cell.failures == 1 and cell.failures_by_reason == {"NumericalError: injected": 1}


def test_two_failed_replications_in_a_hundred_fail_the_cell(monkeypatch):
    # more than MAX_FAILURE_SHARE = 1 % of a cell's replications failed
    _failing_replications(monkeypatch, {17, 60})
    with pytest.raises(NumericalError) as info:
        run_experiment(small_size_spec(replications=100, n_values=(100,)), jobs=1)
    assert str(info.value) == ("cell {'n': 100, 'xi': 0.5, 'c0': 0.1} had 2/100 failed replications (> 1%): "
                               "{'NumericalError: injected': 2}")


def test_simulate_whose_cell_fails_exits_3(monkeypatch, tmp_path, capsys):
    from npivtest.cli import main

    _failing_replications(monkeypatch, {17, 60})
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(small_size_spec(replications=100, n_values=(100,)).to_dict()))
    assert main(["simulate", str(spec), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: cell {'n': 100, 'xi': 0.5, 'c0': 0.1} had 2/100 "
                                              "failed replications (> 1%)")
    assert not (tmp_path / "out.json").exists()


def _counting_pools(monkeypatch):
    """Replace sim's ProcessPoolExecutor by a subclass that counts constructions and shutdowns."""
    counts = {"built": 0, "shut": 0}

    class CountingPool(sim_module.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            counts["built"] += 1
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            counts["shut"] += 1
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(sim_module, "ProcessPoolExecutor", CountingPool)
    return counts


def test_one_worker_pool_serves_a_reproduce_call(monkeypatch):
    counts = _counting_pools(monkeypatch)
    cells = dict(n_values=(500,), xi_values=(0.5,))
    parallel = reproduce("supp-D", replications=4, seed=3, jobs=2, **cells)
    again = reproduce("supp-D", replications=4, seed=3, jobs=2, **cells)
    assert counts == {"built": 1, "shut": 0}  # four cells twice, one pool kept warm
    three = reproduce("supp-D", replications=4, seed=3, jobs=3, **cells)
    assert counts == {"built": 2, "shut": 1}  # another jobs replaces the pool
    serial = reproduce("supp-D", replications=4, seed=3, jobs=1, **cells)
    assert counts["built"] == 2
    for rows in (parallel["rows"], again["rows"], three["rows"]):
        np.testing.assert_equal(rows, serial["rows"])
    reproduce("supp-D", replications=3, seed=3, jobs=2, **cells)  # too few replications to fork
    assert counts["built"] == 2


def test_every_chunk_of_a_reproduce_call_is_submitted_before_the_first_result(monkeypatch):
    events = []

    class RecordingPool(sim_module.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            future = super().submit(*args, **kwargs)
            events.append("submit")
            result = future.result

            def recorded_result(*a, **kw):
                events.append("result")
                return result(*a, **kw)

            future.result = recorded_result
            return future

    monkeypatch.setattr(sim_module, "ProcessPoolExecutor", RecordingPool)
    reproduce("supp-D", replications=4, seed=3, jobs=2, n_values=(500,), xi_values=(0.5,))
    assert events == ["submit"] * 8 + ["result"] * 8  # 2 draw groups (one per design) of 4 one-replication chunks


@pytest.mark.parametrize("table, cells", [
    ("supp-D", dict(n_values=(500, 1000), xi_values=(0.5,))),
    ("F1", dict(n_values=(500,), xi_values=(0.5,))),  # size-adjusted power: boundary runs calibrate each curve
    ("T1", dict(n_values=(500,))),
    ("T2", dict(n_values=(500,))),
    ("F2", dict(n_values=(500,), xi_values=(0.5,))),
    ("supp-C", dict(n_values=(500,))),
])
def test_reproduce_rows_do_not_depend_on_jobs(table, cells):
    serial = reproduce(table, replications=5, seed=3, jobs=1, **cells)
    parallel = reproduce(table, replications=5, seed=3, jobs=2, **cells)
    assert json.dumps(parallel["rows"]) == json.dumps(serial["rows"])


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_sample_is_drawn_once(monkeypatch, tmp_path, jobs):
    # supp-D's structural and image-space tests of one design read the same draw: 2 designs x 4 replications
    # are 8 draws, not one per cell and replication (16); the forked workers append to one file
    log = tmp_path / "draws"
    draw = sim_module.draw

    def logging_draw(cfg):
        with open(log, "a") as f:
            f.write(f"{cfg.design} {cfg.rng.stream_id}\n")
        return draw(cfg)

    monkeypatch.setattr(sim_module, "draw", logging_draw)
    reproduce("supp-D", replications=4, seed=3, jobs=jobs, n_values=(500,), xi_values=(0.5,))
    assert sorted(log.read_text().split("\n")[:-1]) == sorted(f"{d} {r}" for d in ("I", "multivariate")
                                                               for r in range(4))


def _recording(records, replication, name, fn, key):
    """fn, appending (replication["r"], name, key(*args)) to records on each call."""
    def wrapper(*args, **kwargs):
        records.append((replication["r"], name, key(*args)))
        return fn(*args, **kwargs)
    return wrapper


def _counting_draws(monkeypatch, replication, seen=None):
    """Patch sim.draw to count draws in replication["r"] (from 0) and keep each draw's (x, w) in seen."""
    draw = sim_module.draw

    def counting_draw(cfg):
        replication["r"] += 1
        x, w, u = draw(cfg)
        if seen is not None:
            seen[replication["r"]] = (x, w)
        return x, w, u

    monkeypatch.setattr(sim_module, "draw", counting_draw)


def test_t1_builds_each_psi_once_per_k_factor_pass_and_its_rows_once(monkeypatch):
    # T1's 3 c0 x 2 K-factor tasks of one xi share each draw, and the 3 c0 tasks of one K factor share a pass:
    # per replication each stepped Psi_J is evaluated once per K factor that steps J, each (Psi_J, B_K) pair
    # is factored once, and each J's constraint rows are built once in the whole call
    adaptive_module._equispaced_constraints.cache_clear()
    replication, records, seen = {"r": -1}, [], {}
    _counting_draws(monkeypatch, replication, seen)
    eval_design = adaptive_module.eval_design
    monkeypatch.setattr(adaptive_module, "eval_design", _recording(
        records, replication, "psi", eval_design, lambda spec, x: spec.dim if x is seen[replication["r"]][0] else None))
    monkeypatch.setattr(adaptive_module, "fit_from_design", _recording(
        records, replication, "fit", adaptive_module.fit_from_design, lambda psi, b, *_: (psi.shape[1], b.shape[1])))
    monkeypatch.setattr(adaptive_module, "deriv_constraints", _recording(
        records, replication, "rows", adaptive_module.deriv_constraints, lambda spec, kind: (spec.dim, kind)))
    out = reproduce("T1", replications=3, seed=3, n_values=(500,), xi_values=(0.7,))
    assert replication["r"] == 2
    fits = Counter((r, key) for r, name, key in records if name == "fit")
    assert set(fits.values()) == {1}
    k_factors = Counter((r, j) for r, j, k in {(r, j, k) for (r, (j, k)) in fits})
    psis = Counter((r, key) for r, name, key in records if name == "psi" and key is not None)
    assert psis == k_factors
    assert max(psis.values()) == 2  # J = 3 is stepped by both K factors
    rows = Counter(key for _, name, key in records if name == "rows")
    assert set(rows.values()) == {1} and (3, "decreasing") in rows
    assert len(out["summaries"]["k2"].cells) == len(out["summaries"]["k4"].cells) == 3


def test_a_t1_pass_builds_one_cone_factor_per_candidate_for_its_three_outcomes(monkeypatch):
    # T1's 3 c0 tasks of one K factor share a pass: each candidate's visit builds its cone factor once, from the
    # fit's own factor of Psi'Omega Psi, and each of the pass's 3 outcomes projects through it
    factors, projections = [], Counter()
    cone, project = adaptive_module._Cone, npiv_module._Cone.project

    def recording_cone(*args):
        factors.append(cone(*args))
        return factors[-1]

    def recording_project(factor, v):
        projections[id(factor)] += 1
        return project(factor, v)

    monkeypatch.setattr(adaptive_module, "_Cone", recording_cone)
    monkeypatch.setattr(npiv_module._Cone, "project", recording_project)
    reproduce("T1", replications=2, seed=3, n_values=(500,), xi_values=(0.7,))
    assert len(factors) >= 4  # 2 replications x 2 K-factor passes, each with at least one candidate
    assert set(projections) == {id(factor) for factor in factors} and set(projections.values()) == {3}


def test_an_f1_group_builds_each_fit_once_per_stepped_j(monkeypatch):
    # F1's 6 c_a x 3 c_b cells of one xi share each draw and one pass, as do its 3 boundary-null runs: per
    # draw each stepped J's fit is built once, and every cell of the pass computes its outcome on it
    replication, records = {"r": -1}, []
    _counting_draws(monkeypatch, replication)
    monkeypatch.setattr(adaptive_module, "fit_from_design", _recording(
        records, replication, "fit", adaptive_module.fit_from_design, lambda psi, *_: psi.shape[1]))
    monkeypatch.setattr(adaptive_module, "_structural_outcome", _recording(
        records, replication, "outcome", adaptive_module._structural_outcome, lambda factor: factor[0]))
    out = reproduce("F1", replications=2, seed=3, n_values=(500,), xi_values=(0.5,))
    assert replication["r"] == 3  # 2 draws for the boundary-null runs, 2 for the cells
    fits = Counter((r, j) for r, name, j in records if name == "fit")
    assert set(fits.values()) == {1}
    outcomes = Counter((r, j) for r, name, j in records if name == "outcome")
    assert set(outcomes) == set(fits)  # every stepped J is a candidate of F1's knot grid
    assert {r: set(n for (rep, _), n in outcomes.items() if rep == r) for r in range(4)} == {
        0: {3}, 1: {3}, 2: {18}, 3: {18}}
    assert len(out["rows"]) == 18


def test_a_supp_d_sample_builds_its_tensor_factors_once(monkeypatch):
    # supp-D's structural and image-space passes of one multivariate draw read one _Designs: each tensor
    # factor, and each stepped Psi_J, is evaluated once per sample
    replication, records, seen = {"r": -1}, [], {}
    _counting_draws(monkeypatch, replication, seen)
    eval_design = adaptive_module.eval_design

    def key(spec, points):
        x, w = seen[replication["r"]]
        return (w.ndim, "x" if points is x else "w", spec.dim, float(points[0]))

    monkeypatch.setattr(adaptive_module, "eval_design", _recording(records, replication, "design", eval_design, key))
    reproduce("supp-D", replications=2, seed=3, n_values=(500,), xi_values=(0.5,))
    multivariate = Counter((r, k) for r, _, k in records if k[0] == 2)
    factors = {(r, dim) for r, (_, side, dim, _) in multivariate if side == "w"}
    assert set(multivariate.values()) == {1}
    assert len(factors) >= 4 and len({r for r, _ in factors}) == 2


def test_image_space_cells_sharing_a_pass_match_their_own_runs(monkeypatch):
    # the c_a cells of an image-space power experiment share one pass per replication; their rows are
    # those of each cell run on its own
    calls = {"passes": 0}
    scan = sim_module._image_space_scan

    def counting_scan(*args):
        calls["passes"] += 1
        return scan(*args)

    monkeypatch.setattr(sim_module, "_image_space_scan", counting_scan)
    fields = dict(design="multivariate", mode="power", statistic="image-space", null="linear", h_family="quad",
                  n_values=(500,), replications=6, k_factor=4, master_seed=5)
    shared = run_experiment(ExperimentSpec(c_a_values=(0.0, 1.0, 3.0), **fields))
    assert calls["passes"] == 6
    single = [run_experiment(ExperimentSpec(c_a_values=(c_a,), **fields)) for c_a in (0.0, 1.0, 3.0)]
    assert shared.rows() == [row for summary in single for row in summary.rows()]
    assert len({row["reject_rate"] for row in shared.rows()}) > 1


def test_every_task_of_a_group_keeps_its_failure_reasons(monkeypatch):
    # c0 = 0.1 and 1.0 share each draw and each pass. In replication 3 the J = 3 step's fit raises: the pass
    # fails, so both tasks fail there. In replication 7 only the c0 = 1.0 task's outcome fails, and the pass
    # goes on for the other. Reasons and rows are those of each task run on its own
    replication = {"r": -1}
    draw, fit, outcome = sim_module.draw, adaptive_module.fit_from_design, adaptive_module._structural_outcome
    target = generate(DesignConfig("I", 200, 0.5, HSpec("mono", c0=1.0), RngStream(31, 7))).y

    def counting_draw(cfg):
        replication["r"] += 1
        return draw(cfg)

    def failing_fit(psi, *args):
        if replication["r"] == 3 and psi.shape[1] == 3:
            raise NumericalError("injected step failure")
        return fit(psi, *args)

    def failing_outcome(factor, y, **kwargs):
        if np.array_equal(y, target):
            raise NumericalError("injected outcome failure")
        return outcome(factor, y, **kwargs)

    monkeypatch.setattr(sim_module, "draw", counting_draw)
    monkeypatch.setattr(adaptive_module, "fit_from_design", failing_fit)
    monkeypatch.setattr(adaptive_module, "_structural_outcome", failing_outcome)
    grouped = run_experiment(small_size_spec(replications=201, c0_values=(0.1, 1.0)))
    single = []
    for c0 in (0.1, 1.0):
        replication["r"] = -1
        single += run_experiment(small_size_spec(replications=201, c0_values=(c0,))).cells
    step, outcome = "NumericalError: injected step failure", "NumericalError: injected outcome failure"
    assert [cell.failures_by_reason for cell in grouped.cells] == [{step: 1}, {outcome: 1, step: 1}]
    assert [cell.failures_by_reason for cell in single] == [{step: 1}, {outcome: 1, step: 1}]
    assert grouped.rows() == [row for cell in single for row in cell.rows()]


def test_a_supp_d_replication_factors_each_realized_instrument_design_once(monkeypatch):
    # every instrument design a replication builds is factored once, where it is used: on design I the
    # structural J = 4 and the image-space candidate each build and factor K = 16, and on the multivariate
    # design the structural J = 3 and J = 4 and the image-space candidate each build and factor the 4 x 4 tensor
    replication, records = {"r": -1}, []
    _counting_draws(monkeypatch, replication)
    for module in (adaptive_module, npiv_module):  # the image-space visit and fit_from_design each factor their B
        monkeypatch.setattr(module, "orthonormal_range", _recording(
            records, replication, "factor", module.orthonormal_range, lambda b, *_: b.shape[1]))
    instrument = adaptive_module._Designs.instrument

    def width(designs, config, k_target):
        return config.instrument_dim(k_target, 1 if designs.w.ndim == 1 else designs.w.shape[1])

    monkeypatch.setattr(adaptive_module._Designs, "instrument", _recording(records, replication, "build", instrument,
                                                                          width))
    out = reproduce("supp-D", replications=1, seed=3, n_values=(5000,), xi_values=(0.5,))
    assert len(out["rows"]) == 8 and replication["r"] == 1  # one draw per design
    factors = Counter((r, k) for r, name, k in records if name == "factor")
    builds = Counter((r, k) for r, name, k in records if name == "build")
    assert len(factors) >= 8
    assert factors == builds and factors[(0, 16)] == 2 and factors[(1, 16)] == 3


def test_a_supp_d_replication_factors_the_same_designs_at_any_jobs(monkeypatch, tmp_path):
    # a pool worker runs a replication by the caller's own code: each replication makes the same
    # orthonormal_range calls, by design width, in this process (jobs 1) as in a forked worker (jobs 2);
    # the workers append theirs to one file
    draw, orthonormal_range = sim_module.draw, adaptive_module.orthonormal_range
    current = {}

    def logging_draw(cfg):
        current["replication"] = f"{cfg.design} {cfg.rng.stream_id}"
        return draw(cfg)

    def logging_range(b, *args):
        with open(current["log"], "a") as f:
            f.write(f"{current['replication']} {b.shape[1]}\n")
        return orthonormal_range(b, *args)

    monkeypatch.setattr(sim_module, "draw", logging_draw)
    monkeypatch.setattr(adaptive_module, "orthonormal_range", logging_range)
    monkeypatch.setattr(npiv_module, "orthonormal_range", logging_range)
    calls = {}
    for jobs in (1, 2):
        current["log"] = tmp_path / f"jobs{jobs}"
        reproduce("supp-D", replications=4, seed=3, jobs=jobs, n_values=(5000,), xi_values=(0.5,))
        calls[jobs] = Counter(current["log"].read_text().split("\n")[:-1])
    assert calls[1] == calls[2]
    replications = {line.rsplit(" ", 1)[0] for line in calls[1]}
    assert replications == {f"{d} {r}" for d in ("I", "multivariate") for r in range(4)}


def test_a_supp_d_replication_calls_no_eigvalsh(monkeypatch):
    # at n = 5000 the column sums of the tensor instrument certify the K = 26...32 image-space steps that
    # the knot-interval counts leave (one 36-column gram and its eigvalsh per multivariate replication
    # before), so no scan of either design's replications forms a stability step's gram
    calls = {"eigvalsh": 0}
    eigvalsh = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    out = reproduce("supp-D", replications=2, seed=3, n_values=(5000,))
    assert len(out["rows"]) == 24
    assert calls == {"eigvalsh": 0}


def _fresh_pool_matches_serial(counts):
    """The call after a failed one builds a new pool, and its rows are the serial rows."""
    spec = small_size_spec(replications=4)
    assert run_experiment(spec, jobs=2).rows() == run_experiment(spec, jobs=1).rows()
    assert counts == {"built": 2, "shut": 1}


def test_worker_pool_is_shut_down_when_a_cell_fails(monkeypatch):
    counts = _counting_pools(monkeypatch)

    def failing(*args, **kwargs):
        raise RuntimeError("cell failed")

    with monkeypatch.context() as patch:
        patch.setattr(sim_module, "_cell_result", failing)
        with pytest.raises(RuntimeError, match="cell failed"):
            run_experiment(small_size_spec(replications=4), jobs=2)
    assert counts == {"built": 1, "shut": 1}
    _fresh_pool_matches_serial(counts)


def test_worker_pool_is_shut_down_when_a_worker_fails(monkeypatch):
    counts = _counting_pools(monkeypatch)

    def failing(cfg):
        raise RuntimeError("replication failed")

    with monkeypatch.context() as patch:
        patch.setattr(sim_module, "draw", failing)  # the forked workers inherit it
        with pytest.raises(RuntimeError, match="replication failed"):
            run_experiment(small_size_spec(replications=4), jobs=2)
    assert counts == {"built": 1, "shut": 1}
    _fresh_pool_matches_serial(counts)  # forked after the patch was undone


def test_a_pool_broken_while_idle_is_replaced(monkeypatch):
    counts = _counting_pools(monkeypatch)
    spec = small_size_spec(replications=4)
    serial = run_experiment(spec, jobs=1).rows()
    run_experiment(spec, jobs=2)
    os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)
    deadline = time.monotonic() + 60
    while not sim_module._pool[1]._broken and time.monotonic() < deadline:  # the pool notices the death
        time.sleep(0.01)
    assert run_experiment(spec, jobs=2).rows() == serial
    assert counts == {"built": 2, "shut": 1}


def test_calls_from_threads_share_the_pool_in_turn():
    # a call with another jobs would replace the pool under a call still gathering from it
    spec = small_size_spec(replications=8)
    serial = run_experiment(spec, jobs=1).rows()
    with ThreadPoolExecutor(max_workers=4) as threads:
        calls = [threads.submit(run_experiment, spec, jobs) for jobs in (2, 3) * 3]
        assert [call.result(timeout=300).rows() for call in calls] == [serial] * 6


@pytest.mark.parametrize("jobs", [0, -2, 1.5, True, "2", None])
def test_jobs_must_be_a_positive_integer(monkeypatch, jobs):
    counts = _counting_pools(monkeypatch)
    with pytest.raises(InputError, match="jobs must be an integer >= 1"):
        run_experiment(small_size_spec(replications=4), jobs=jobs)
    with pytest.raises(InputError, match="jobs must be an integer >= 1"):
        reproduce("T1", replications=4, jobs=jobs, n_values=(500,))
    assert counts == {"built": 0, "shut": 0}


def test_the_pool_has_at_most_one_worker_per_available_cpu(monkeypatch):
    # a pool starts every worker at its first submit, so the requested jobs must not reach it unchecked;
    # the inline pool below starts none, and jobs still sets the chunking, so the rows are the serial rows
    created = []

    class InlinePool:
        _broken = False

        def __init__(self, max_workers, initializer):  # a worker's set-up is not run in this process
            created.append(max_workers)
            assert initializer is sim_module._init_worker

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, **kwargs):
            pass

    assert 1 <= sim_module._cpus() == len(os.sched_getaffinity(0))
    spec = small_size_spec(replications=8)
    serial = run_experiment(spec, jobs=1).rows()
    monkeypatch.setattr(sim_module, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(sim_module, "_cpus", lambda: 3)
    try:
        assert run_experiment(spec, jobs=100_000).rows() == serial
        assert run_experiment(spec, jobs=2).rows() == serial
    finally:
        sim_module._discard_pool()
    assert created == [3, 2]


def _python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's npivtest."""
    src = str(pathlib.Path(sim_module.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True,
                          timeout=300)


def test_no_worker_outlives_its_parent():
    # a fresh interpreter returns with its pool alive; its exit must take the workers with it
    done = _python("""
        import multiprocessing
        from npivtest.sim import reproduce
        reproduce("supp-D", replications=4, jobs=2, n_values=(500,), xi_values=(0.5,))
        print(*(p.pid for p in multiprocessing.active_children()))
    """)
    assert done.returncode == 0, done.stderr
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == 2
    assert not [pid for pid in pids if _alive(pid)]


def test_a_forked_child_builds_its_own_pool():
    # the child inherits the parent's pool object but not its workers, so it forgets the pool at the fork and
    # builds its own: reusing the parent's would hang the child, which its alarm then ends before the parent's
    done = _python("""
        import os, signal
        from npivtest import sim
        signal.alarm(240)
        kw = dict(replications=4, jobs=2, n_values=(500,), xi_values=(0.5,))
        sim.reproduce("supp-D", **kw)
        parent_pool = sim._pool
        child = os.fork()
        if child == 0:
            signal.alarm(60)
            forgotten = sim._pool is None
            sim.reproduce("supp-D", **kw)
            print(forgotten, sim._pool[1] is not parent_pool[1], flush=True)
            sim._discard_pool()
            os._exit(0)
        os.waitpid(child, 0)
        print(sim._pool is parent_pool)
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "True", "True"]


def test_a_child_forked_after_the_pool_exits_cleanly():
    # the child inherits multiprocessing's records of the parent's workers; its exit must not try to join
    # them, and the parent's pool serves the next call
    done = _python("""
        import json, os, signal, sys
        from npivtest import sim
        signal.alarm(240)
        kw = dict(replications=4, jobs=2, n_values=(500,), xi_values=(0.5,), c0_values=(1.0,), k_factors=(2,))
        first = json.dumps(sim.reproduce("T1", **kw)["rows"])
        pool = sim._pool
        child = os.fork()
        if child == 0:
            sys.exit(0)
        print(os.waitpid(child, 0)[1], json.dumps(sim.reproduce("T1", **kw)["rows"]) == first, sim._pool is pool)
    """)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout.split() == ["0", "True", "True"]


class _Libc:
    """A C library that records its mallopt calls."""

    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


_POLICY = [(-1, 256 << 20), (-3, 32 << 20)]  # mallopt(M_TRIM_THRESHOLD, 256 MiB), mallopt(M_MMAP_THRESHOLD, 32 MiB)


def test_pool_workers_keep_their_freed_pages(monkeypatch):
    libc = _Libc()
    monkeypatch.setattr(sim_module, "_libc", lambda: libc)
    monkeypatch.setattr(sim_module, "_one_blas_thread", lambda: None)  # this process keeps its BLAS threads
    sim_module._init_worker()
    assert libc.calls == _POLICY
    for absent in (object(), None):  # a C library without mallopt, or none at all, is left as it is
        monkeypatch.setattr(sim_module, "_libc", lambda: absent)
        sim_module._keep_freed_pages()


def test_only_the_command_runs_the_workers_allocator_policy(monkeypatch, tmp_path):
    # cli.main runs its own process under the workers' policy; the library entry points, a serial reproduce
    # among them, leave the caller's allocator as it is
    from npivtest.adaptive import NullSpec, adaptive_test, image_space_test
    from npivtest.cli import main

    libc = _Libc()
    monkeypatch.setattr(sim_module, "_libc", lambda: libc)
    data = generate(DesignConfig("I", 500, 0.5, HSpec("mono", c0=0.3), RngStream(3, 0)))
    adaptive_test(data.y, data.x, data.w, NullSpec.from_name("decreasing"))
    image_space_test(data.y, data.x, data.w, "linear")
    reproduce("T1", replications=2, jobs=1, n_values=(500,), xi_values=(0.5,), c0_values=(1.0,), k_factors=(2,))
    assert libc.calls == []
    path = tmp_path / "data.csv"
    np.savetxt(path, np.column_stack([data.y, data.x, data.w]), fmt="%.17g", delimiter=",", header="y,x,w",
               comments="")
    assert main(["test", str(path), "--out", str(tmp_path / "report.txt")]) == 0
    assert libc.calls == _POLICY


def test_a_process_that_cannot_open_itself_keeps_its_allocator(monkeypatch):
    def refuse(name):
        raise OSError(f"cannot open {name}")

    monkeypatch.setattr(sim_module, "ctypes", SimpleNamespace(CDLL=refuse))
    assert sim_module._libc() is None
    sim_module._keep_freed_pages()


def test_one_blas_thread_sets_each_bundled_openblas_that_has_the_setter(monkeypatch):
    # glob and the library loader are faked, so this process keeps its BLAS threads
    patterns, calls = [], []
    libs = {"with.so": SimpleNamespace(scipy_openblas_set_num_threads64_=lambda n: calls.append(("with.so", n))),
            "without.so": SimpleNamespace()}
    monkeypatch.setattr(sim_module, "glob", SimpleNamespace(glob=lambda p: patterns.append(p) or sorted(libs)))
    monkeypatch.setattr(sim_module, "ctypes", SimpleNamespace(CDLL=libs.__getitem__))
    sim_module._one_blas_thread()
    assert patterns == [os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*.so")]
    assert calls == [("with.so", 1)]


def test_a_forked_child_forgets_the_inherited_pool(monkeypatch):
    # the at-fork hook, run here on a stand-in pool: the child drops the pool and its records of the workers
    worker, other = object(), object()
    children = {worker, other}
    monkeypatch.setattr(multiprocessing.process, "_children", children)
    for processes in ({7: worker}, None):  # a pool that was shut down has _processes None
        monkeypatch.setattr(sim_module, "_pool", (2, SimpleNamespace(_processes=processes)))
        sim_module._forget_inherited_pool()
        assert sim_module._pool is None
    assert children == {other}
    sim_module._forget_inherited_pool()  # a child forked while no pool lives has nothing to forget
    assert sim_module._pool is None and children == {other}


def test_a_summary_has_no_cell_it_did_not_run():
    summary = run_experiment(small_size_spec(replications=2))
    assert summary.cell(c0=0.1) is summary.cells[0]
    with pytest.raises(KeyError) as info:
        summary.cell(c0=0.5)
    assert info.value.args == ("no cell with {'c0': 0.5}",)


def test_pool_workers_run_one_blas_thread():
    # the initializer runs in each worker: each reports one OpenBLAS thread whatever the environment says
    done = _python("""
        import ctypes, glob, os
        import numpy as np
        from npivtest import sim
        lib = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*.so"))
        get = getattr(ctypes.CDLL(lib[0]), "scipy_openblas_get_num_threads64_", None) if lib else None

        def threads():
            return get()

        pool = sim._workers(2)
        print(get is None or [pool.submit(threads).result() for _ in range(4)] == [1] * 4)
        sim._discard_pool()
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True"]


def test_reproduce_bytes_do_not_depend_on_blas_threads():
    # the pool's workers set their own BLAS thread count, so the environment's does not reach the rows
    src = str(pathlib.Path(sim_module.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    command = [sys.executable, "-m", "npivtest.cli", "reproduce", "supp-D", "--reps", "4", "--n", "500",
               "--jobs", "2", "--format", "json"]
    unset, one = (subprocess.run(command, env=extra, capture_output=True, timeout=300)
                  for extra in (env, {**env, "OPENBLAS_NUM_THREADS": "1"}))
    assert unset.returncode == one.returncode == 0, (unset.stderr, one.stderr)
    assert json.loads(unset.stdout)["rows"]
    assert unset.stdout == one.stdout


def _alive(pid: int) -> bool:
    """A process that has not exited; a zombie waiting to be reaped counts as exited."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


GOLDEN_MC = pathlib.Path(__file__).parent / "data" / "golden_mc_reproduce.json"


@pytest.mark.parametrize("jobs", [1, 2])
def test_reproduce_matches_golden_fixture(jobs):
    # reproduce rows and summaries (without timings) of F1 (n = 500, xi = 0.5), T1 (n = 500), and supp-D and
    # supp-C (n = 500, 1000) at 6 replications and seed 3; compared as JSON text, so NaN published values
    # compare equal
    golden = json.loads(GOLDEN_MC.read_text())
    for table, cells in (("F1", dict(n_values=(500,), xi_values=(0.5,))), ("T1", dict(n_values=(500,))),
                         ("supp-D", dict(n_values=(500, 1000))), ("supp-C", dict(n_values=(500, 1000)))):
        out = reproduce(table, replications=6, seed=3, jobs=jobs, **cells)
        ours = {"rows": out["rows"], "summaries": {k: _without_timings(s) for k, s in out["summaries"].items()}}
        assert json.dumps(ours, sort_keys=True) == json.dumps(golden[table], sort_keys=True)
