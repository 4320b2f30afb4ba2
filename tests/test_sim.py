import json
import pathlib

import numpy as np
import pytest

import npivtest.sim as sim_module
from npivtest.errors import InputError, NumericalError
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


def test_spec_json_roundtrip():
    spec = small_size_spec(grid_mode=(3, 4), alphas=(0.10, 0.05))
    again = ExperimentSpec.from_dict(spec.to_dict())
    assert again == spec
    with pytest.raises(InputError):
        ExperimentSpec.from_dict({"mode": "size", "cheese": 1})


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
    dict(mode="power", h_family="mono"),
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
    # the scan fails once in the boundary-null run (stream offset + 5) and once in the cell (stream 7)
    failing = {sim_module.CALIBRATION_STREAM_OFFSET + 5, 7}
    current = {}
    stream, scan = sim_module.RngStream, sim_module.adaptive_scan

    def recording_stream(seed, stream_id):
        current["id"] = stream_id
        return stream(seed, stream_id)

    def failing_scan(*args, **kwargs):
        if current["id"] in failing:
            raise NumericalError("injected")
        return scan(*args, **kwargs)

    monkeypatch.setattr(sim_module, "RngStream", recording_stream)  # the forked workers inherit both
    monkeypatch.setattr(sim_module, "adaptive_scan", failing_scan)
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
    generate, svd = sim_module.generate, np.linalg.svd

    def counting_generate(cfg):
        datasets["made"] += 1
        return generate(cfg)

    def failing_svd(a, *args, **kwargs):
        if datasets["made"] == 2:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(sim_module, "generate", counting_generate)
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
    assert counts == {"built": 1, "shut": 1}  # four cells, one pool
    serial = reproduce("supp-D", replications=4, seed=3, jobs=1, **cells)
    assert counts["built"] == 1
    np.testing.assert_equal(parallel["rows"], serial["rows"])
    reproduce("supp-D", replications=3, seed=3, jobs=2, **cells)  # too few replications to fork
    assert counts["built"] == 1


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
    assert events == ["submit"] * 16 + ["result"] * 16  # 4 cells of 4 one-replication chunks


@pytest.mark.parametrize("table, cells", [
    ("supp-D", dict(n_values=(500, 1000), xi_values=(0.5,))),
    ("F1", dict(n_values=(500,), xi_values=(0.5,))),  # size-adjusted power: boundary runs calibrate each curve
])
def test_reproduce_rows_do_not_depend_on_jobs(table, cells):
    serial = reproduce(table, replications=5, seed=3, jobs=1, **cells)
    parallel = reproduce(table, replications=5, seed=3, jobs=2, **cells)
    assert json.dumps(parallel["rows"]) == json.dumps(serial["rows"])


def test_worker_pool_is_shut_down_when_a_cell_fails(monkeypatch):
    counts = _counting_pools(monkeypatch)

    def failing(*args, **kwargs):
        raise RuntimeError("cell failed")

    monkeypatch.setattr(sim_module, "_cell_result", failing)
    with pytest.raises(RuntimeError, match="cell failed"):
        run_experiment(small_size_spec(replications=4), jobs=2)
    assert counts == {"built": 1, "shut": 1}


def test_worker_pool_is_shut_down_when_a_worker_fails(monkeypatch):
    counts = _counting_pools(monkeypatch)

    def failing(cfg):
        raise RuntimeError("replication failed")

    monkeypatch.setattr(sim_module, "generate", failing)  # the forked workers inherit it
    with pytest.raises(RuntimeError, match="replication failed"):
        run_experiment(small_size_spec(replications=4), jobs=2)
    assert counts == {"built": 1, "shut": 1}


GOLDEN_MC = pathlib.Path(__file__).parent / "data" / "golden_mc_reproduce.json"


@pytest.mark.parametrize("jobs", [1, 2])
def test_reproduce_matches_golden_fixture(jobs):
    # reproduce rows and summaries (without timings) of F1 (n = 500, xi = 0.5) and T1 (n = 500) at 6
    # replications and seed 3; compared as JSON text, so NaN published values compare equal
    golden = json.loads(GOLDEN_MC.read_text())
    for table, cells in (("F1", dict(n_values=(500,), xi_values=(0.5,))), ("T1", dict(n_values=(500,)))):
        out = reproduce(table, replications=6, seed=3, jobs=jobs, **cells)
        ours = {"rows": out["rows"], "summaries": {k: _without_timings(s) for k, s in out["summaries"].items()}}
        assert json.dumps(ours, sort_keys=True) == json.dumps(golden[table], sort_keys=True)
