"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion. The suite seed is fixed once for all criteria; realized Monte
Carlo rates are compared against the published values within binomial noise.
"""

import json
import math
import pathlib
import time
from dataclasses import replace

import numpy as np
import pytest

from npivtest.published import SUPP_D, TABLE1, TABLE2
from npivtest.adaptive import NullSpec, RunConfig, adaptive_test, cs_contains
from npivtest.basis import BasisSpec, eval_design
from npivtest.dgp import DesignConfig, HSpec, generate
from npivtest.errors import NumericalError
from npivtest.npiv import cone_project, fit_from_design
from npivtest.randdist import RngStream, chisq_quantile
from npivtest.sim import ExperimentSpec, run_experiment

from oracles import (
    brute_D,
    brute_shat,
    brute_vhat,
    chisq_cdf,
    cone_project_enumerate,
)

ACCEPT_SEED = 20250810
DATA_DIR = pathlib.Path(__file__).parent / "data"
TABLE1_CELL_BUDGET_SECONDS = 600.0


def _announce(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


# ---------------------------------------------------------------- criterion 1


@pytest.fixture(scope="module")
def table1_run():
    spec = ExperimentSpec(
        design="I",
        mode="size",
        null="decreasing",
        h_family="mono",
        n_values=(500,),
        xi_values=(0.3, 0.5, 0.7),
        c0_values=(0.01, 1.0),
        alphas=(0.05,),
        replications=1000,
        k_factor=2,
        grid_mode="knots",
        master_seed=ACCEPT_SEED,
    )
    start = time.perf_counter()
    summary = run_experiment(spec)
    elapsed = time.perf_counter() - start
    return summary, elapsed / 6.0


def test_criterion_1_table1_size(table1_run):
    summary, per_cell_seconds = table1_run
    failures = []
    lines = []
    for c0 in (0.01, 1.0):
        for xi in (0.3, 0.5, 0.7):
            cell = summary.cell(c0=c0, xi=xi)
            ours = cell.reject_rate[0.05]
            published = TABLE1[(500, c0, xi, 2)]["r05"]
            se = math.sqrt(max(published * (1 - published), 1e-12) / cell.replications)
            tol = max(0.015, 3.0 * se)
            ok = abs(ours - published) <= tol
            lines.append(f"c0={c0} xi={xi}: ours={ours:.3f} published={published:.3f} tol={tol:.3f}")
            if not ok:
                failures.append(lines[-1])
    runtime_ok = per_cell_seconds < TABLE1_CELL_BUDGET_SECONDS
    detail = (
        f"Table 1 size, 6 cells at 1000 reps ({'; '.join(lines)}); "
        f"{per_cell_seconds:.1f}s/cell (budget {TABLE1_CELL_BUDGET_SECONDS:.0f}s)"
    )
    _announce(1, not failures and runtime_ok, detail)
    assert not failures, failures
    assert runtime_ok, f"runtime {per_cell_seconds:.1f}s/cell exceeds budget"


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_table2_parametric_size():
    spec = ExperimentSpec(
        design="I",
        mode="size",
        null="linear",
        h_family="sin",
        n_values=(500,),
        xi_values=(0.5,),
        c_a_values=(0.0,),
        c_b_values=(0.0,),
        alphas=(0.05,),
        replications=1000,
        k_factor=2,
        grid_mode="knots",
        master_seed=ACCEPT_SEED,
    )
    summary = run_experiment(spec)
    ours = summary.cells[0].reject_rate[0.05]
    published = TABLE2[(500, 0.5, 2)]["r05"]
    ok = abs(ours - published) <= 0.015
    _announce(2, ok, f"Table 2 linearity size: ours={ours:.3f} published={published:.3f} tol=0.015")
    assert ok


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_average_selected_dimension(table1_run):
    summary, _ = table1_run
    cell = summary.cell(c0=0.01, xi=0.5)
    ours = cell.avg_j[0.05]
    published = TABLE1[(500, 0.01, 0.5, 2)]["jhat"]
    ok = abs(ours - published) <= 0.4
    _announce(3, ok, f"average selected J (knot-grid mode): ours={ours:.2f} published={published:.2f} tol=0.4")
    assert ok


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_power_curve():
    c_a_grid = (0.3, 0.6, 1.0, 1.5, 2.0)
    spec = ExperimentSpec(
        design="I",
        mode="size_adjusted_power",
        null="decreasing",
        h_family="sin",
        n_values=(500,),
        xi_values=(0.7,),
        c_a_values=c_a_grid,
        c_b_values=(0.0,),
        alphas=(0.05,),
        replications=500,
        k_factor=4,
        grid_mode="knots",
        master_seed=ACCEPT_SEED,
    )
    summary = run_experiment(spec)
    powers = [summary.cell(c_a=c_a).reject_rate[0.05] for c_a in c_a_grid]
    ses = [summary.cell(c_a=c_a).se[0.05] for c_a in c_a_grid]
    tail_ok = powers[-1] >= 0.8
    monotone_ok = all(
        p2 >= p1 - 2.0 * math.sqrt(s1**2 + s2**2)
        for p1, p2, s1, s2 in zip(powers, powers[1:], ses, ses[1:])
    )
    increasing_ok = powers[-1] > powers[0]
    curve = ", ".join(f"{c}:{p:.3f}" for c, p in zip(c_a_grid, powers))
    _announce(4, tail_ok and monotone_ok and increasing_ok,
              f"size-adjusted power (n=500, xi=0.7, K=4J): {curve}; tail >= 0.8 and monotone within 2 SE")
    assert tail_ok, powers
    assert monotone_ok, powers
    assert increasing_ok, powers


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_image_space_size():
    spec = ExperimentSpec(
        design="I",
        mode="size",
        statistic="image-space",
        null="linear",
        h_family="sin",
        n_values=(500,),
        xi_values=(0.5,),
        c_a_values=(0.0,),
        c_b_values=(0.0,),
        alphas=(0.05,),
        replications=1000,
        k_factor=4,
        master_seed=ACCEPT_SEED,
    )
    summary = run_experiment(spec)
    ours = summary.cells[0].reject_rate[0.05]
    published = SUPP_D[(500, "I", 0.5)]["it"]
    ok = abs(ours - published) <= 0.02
    _announce(5, ok, f"image-space size: ours={ours:.3f} published={published:.3f} tol=0.02")
    assert ok


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_oracle_equivalence_suite():
    start = time.perf_counter()
    gen = np.random.default_rng(ACCEPT_SEED)

    # compute_D vs O(n^2) brute force: 200 instances, n <= 50, 1e-10 relative; a draw that
    # leaves a B-spline without support has a singular B'B, which the fit refuses
    from npivtest.adaptive import compute_D, compute_vhat

    for _ in range(200):
        n = int(gen.integers(8, 51))
        x, w = gen.uniform(size=n), gen.uniform(size=n)
        psi = eval_design(BasisSpec("bspline", 3, 3), x)
        b = eval_design(BasisSpec("bspline", 6, 3), w)
        r = gen.normal(size=n)
        try:
            fit = fit_from_design(psi, b)
        except NumericalError as exc:
            ev = np.linalg.eigvalsh(b.T @ b)
            assert "instrument gram B'B" in str(exc) and ev[0] <= 1e-8 * ev[-1]
            continue
        fast, slow = compute_D(fit.scaled_map, r), brute_D(r, psi, b)
        assert fast == pytest.approx(slow, rel=1e-10, abs=1e-13)

    # cone projection vs exhaustive active-set oracle: 500 instances, J <= 6, 1e-8
    for trial in range(500):
        dim = int(gen.integers(2, 7))
        a = gen.normal(size=(dim, dim))
        g = a.T @ a + 0.2 * np.eye(dim)
        m = gen.normal(size=(int(gen.integers(1, dim + 1)), dim))
        v = gen.normal(size=dim) * 2.0
        beta, _ = cone_project(v, g, m)
        oracle = cone_project_enumerate(v, g, m)
        np.testing.assert_allclose(beta, oracle, atol=1e-8)

    # v_hat and s_hat vs from-scratch dense assembly: 100 well-posed instances, 1e-8
    done = 0
    while done < 100:
        n = int(gen.integers(60, 121))
        x, w = gen.uniform(size=n), gen.uniform(size=n)
        psi = eval_design(BasisSpec("bspline", 4, 3), x)
        b = eval_design(BasisSpec("bspline", 8, 3), w)
        conds = [np.linalg.eigvalsh(d.T @ d) for d in (psi, b)]
        if any(ev[0] <= 1e-8 * ev[-1] for ev in conds):
            continue  # empty-support draw; singular grams have their own test
        fit = fit_from_design(psi, b)
        u = gen.normal(size=n)
        assert compute_vhat(fit.scaled_map, u) == pytest.approx(brute_vhat(u, psi, b), rel=1e-8)
        assert fit.s_hat == pytest.approx(brute_shat(psi, b), abs=1e-8)
        done += 1

    # chi-square quantile round trip on the full grid, 1e-9
    for a in (0.9, 0.5, 0.1, 0.05, 0.01, 0.001):
        for k in range(1, 65):
            q = chisq_quantile(a, k)
            assert abs(chisq_cdf(q, k) - (1.0 - a)) <= 1e-9

    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    _announce(6, ok, f"oracle equivalence suite (D, cone, v, s, chi-square) in {elapsed:.1f}s (< 120s)")
    assert ok


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_property_suite(tmp_path):
    checks = []

    # scale invariance of W under y -> c y
    data = generate(DesignConfig("I", 300, 0.5, HSpec("sin", c_a=0.3, c_b=0.5),
                                 RngStream(ACCEPT_SEED, 1)))
    cfg = RunConfig(grid="knots", k_factor=2)
    for null_name in ("decreasing", "linear"):
        null = NullSpec.from_name(null_name)
        base = adaptive_test(data.y, data.x, data.w, null, config=cfg)
        for c in (0.1, 3.0, 100.0):
            rep = adaptive_test(c * data.y, data.x, data.w, null, config=cfg)
            for r1, r2 in zip(base.per_j, rep.per_j):
                assert r2.w_stat == pytest.approx(r1.w_stat, rel=1e-8, abs=1e-10)
    checks.append("W scale-invariant")

    # B-spline partition of unity
    xs = np.random.default_rng(ACCEPT_SEED).uniform(size=512)
    for dim, order in ((3, 3), (7, 3), (9, 4)):
        design = eval_design(BasisSpec("bspline", dim, order), xs)
        np.testing.assert_allclose(design.sum(axis=1), 1.0, atol=1e-12)
    checks.append("partition of unity")

    # projection KKT conditions on random cones
    gen = np.random.default_rng(ACCEPT_SEED + 2)
    for _ in range(100):
        dim = int(gen.integers(2, 7))
        a = gen.normal(size=(dim, dim))
        g = a.T @ a + 0.3 * np.eye(dim)
        m = gen.normal(size=(dim - 1, dim))
        v = gen.normal(size=dim) * 2.0
        beta, active = cone_project(v, g, m)
        grad = g @ (beta - v)
        slack = m @ beta
        assert np.all(slack <= 1e-7 * (1.0 + np.abs(slack).max()))
        if active.size:
            lam, *_ = np.linalg.lstsq(m[active].T, -grad, rcond=None)
            np.testing.assert_allclose(m[active].T @ lam, -grad, atol=1e-6)
            assert np.all(lam >= -1e-6 * (1.0 + np.abs(lam).max()))
        else:
            np.testing.assert_allclose(grad, 0.0, atol=1e-8)
    checks.append("projection KKT")

    # byte-level determinism of a fixed-seed end-to-end run
    spec = ExperimentSpec(
        design="I", mode="size", null="decreasing", h_family="mono",
        n_values=(200,), xi_values=(0.5,), c0_values=(0.1,), alphas=(0.05,),
        replications=25, k_factor=2, master_seed=ACCEPT_SEED,
    )
    rows_a = json.dumps(run_experiment(spec).rows(), sort_keys=True)
    rows_b = json.dumps(run_experiment(spec).rows(), sort_keys=True)
    assert rows_a.encode() == rows_b.encode()
    checks.append("byte determinism")

    # confidence-set coverage over 500 replications
    alpha = 0.05
    truth = HSpec("mono", c0=1.0)
    null = NullSpec.from_name("decreasing")
    hits = 0
    reps = 500
    for r in range(reps):
        d = generate(DesignConfig("I", 500, 0.5, truth, RngStream(ACCEPT_SEED + 3, r)))
        contained, *_ = cs_contains(lambda x: truth(x), d.y, d.x, d.w,
                                    config=replace(cfg, alpha=alpha), null=null)
        hits += contained
    coverage = hits / reps
    cov_ok = coverage >= 1.0 - alpha - 0.03
    checks.append(f"CS coverage {coverage:.3f}")

    _announce(7, cov_ok, "property suite: " + ", ".join(checks))
    assert cov_ok, coverage


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_out_of_scope_substitutes():
    # The 5000-replication studies and the proprietary retail-scanner /
    # household-expenditure applications are not reproducible here by design;
    # criteria 1-5 at reduced replications and the CSV golden fixtures stand in.
    assert not list(pathlib.Path(__file__).parent.parent.glob("**/nielsen*"))
    assert not list(pathlib.Path(__file__).parent.parent.glob("**/fes*"))
    for fixture in ("engel_style.csv", "golden_engel_report.json",
                    "golden_report_n200.json", "golden_design2_n8.json"):
        assert (DATA_DIR / fixture).exists(), fixture
    reduced = {"criterion 1-3": 1000, "criterion 4": 500, "criterion 5": 1000}
    assert all(reps < 5000 for reps in reduced.values())
    _announce(8, True, "desk-scale substitutes in place (reduced replications + CSV golden fixtures)")
