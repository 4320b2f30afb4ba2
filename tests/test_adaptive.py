import dataclasses
import functools
import importlib
import json
import math
from collections import Counter
import pathlib
import pkgutil
import re
import warnings
import weakref

import numpy as np
import pytest
from scipy.special import ndtri

import npivtest
import npivtest.adaptive as adaptive_module
import npivtest.basis as basis_module
import npivtest.npiv as npiv_module
import npivtest.sim as sim_module
from npivtest.adaptive import (
    NullSpec,
    RunConfig,
    _vhat_scaling,
    adaptive_scan,
    adaptive_test,
    compute_D,
    cs_contains,
    decide,
    eta_hat,
    gamma_hat,
    image_space_test,
)
from npivtest.basis import BasisSpec, ConstraintMatrix, deriv_constraints, eval_design
from npivtest.dgp import DesignConfig, HSpec, generate, h_mono
from npivtest.errors import InputError, NumericalError
from npivtest.linalg import orthonormal_range
from npivtest.npiv import fit_from_design, fit_restricted_parametric
from npivtest.randdist import CovarianceSpec, RngStream, chisq_quantile, chisq_sf, mvn_sample
from npivtest.sim import ExperimentSpec

from oracles import (
    _max_support_count,
    brute_coeffs,
    brute_D,
    brute_image_D,
    brute_shat,
    brute_vhat,
    chisq_quantile_bisect,
    compute_D_squares,
    compute_vhat_product,
    cone_project_cholesky,
    dense_projector,
    image_space_statistics_basis,
    image_space_step_dense,
    image_space_step_knot_counts,
    image_vhat_gram,
    instrument_design,
    instrument_dims_float_root,
)
from test_parity_digest import _differences

DATA_DIR = pathlib.Path(__file__).parent / "data"


def bspline(dim, order=3, **kw):
    return BasisSpec("bspline", dim, order, **kw)


def cone_fit(fit, m, beta):
    """(beta_r, active_set) of beta on the cone of m's rows, through the _Cone a structural candidate's visit builds
    from its fit's own factor and the projection its outcome makes."""
    return npiv_module._Cone(m.rows, fit.gram_weighted, fit.l_inv_t).project(beta)


def small_fit(rng, n=40, j=3, k=6):
    x, w = rng.uniform(size=n), rng.uniform(size=n)
    y = rng.normal(size=n)
    psi = eval_design(bspline(j), x)
    b = eval_design(bspline(k), w)
    return fit_from_design(psi, b), psi, b, y


def shat(psi, b, omega=None):
    """s_J of the factor of Psi on B."""
    return fit_from_design(psi, b, mu=omega).s_hat


def scan_grid(x, w, config, y=None):
    """The candidate grid of a structural scan (a linear null, which every basis admits)."""
    return adaptive_scan(x if y is None else y, x, w, NullSpec.from_name("linear"), config)[0]


# ------------------------------------------------------------------- s_hat


def test_shat_orthonormal_identity(rng):
    n = 200
    q, _ = np.linalg.qr(rng.normal(size=(n, 4)))
    q *= math.sqrt(n)  # unit empirical gram
    assert shat(q, q) == pytest.approx(1.0, abs=1e-10)


def test_shat_nested_orthonormal_column(rng):
    n = 300
    q, _ = np.linalg.qr(rng.normal(size=(n, 6)))
    q *= math.sqrt(n)
    assert shat(q[:, :2], q) == pytest.approx(1.0, abs=1e-10)


def test_shat_matches_dense_assembly(rng):
    for _ in range(20):
        n = 60
        psi = eval_design(bspline(4), rng.uniform(size=n))
        b = eval_design(bspline(8), rng.uniform(size=n))
        omega = rng.uniform(0.5, 2.0, size=n)
        assert shat(psi, b, omega) == pytest.approx(brute_shat(psi, b, omega), abs=1e-8)


def test_shat_nonincreasing_in_nested_dimensions(rng):
    # appending nested power-basis columns with K and weights fixed cannot
    # raise the minimal singular value
    n = 400
    x, w = rng.uniform(size=n), rng.uniform(size=n)
    b = eval_design(BasisSpec("power", 8), w)
    vals = []
    for j in range(1, 6):
        psi = eval_design(BasisSpec("power", j), x)
        vals.append(shat(psi, b))
    assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(vals, vals[1:]))


def test_shat_singular_gram_names_offender(rng):
    n = 50
    x = rng.uniform(size=n)
    psi = np.column_stack([np.ones(n), x, x])  # exactly collinear
    b = eval_design(bspline(6), rng.uniform(size=n))
    with pytest.raises(NumericalError, match="regressor gram"):
        shat(psi, b)


# -------------------------------------------------------------------- grid


def test_res_parameters_match_formulas():
    cfg = RunConfig(basis="cosine", grid="dyadic")  # cosine has basis minimum 1
    gen = np.random.default_rng(0)
    x, w = gen.uniform(size=1000), gen.uniform(size=1000)
    grid = scan_grid(x, w, cfg)
    assert grid.j_underbar == 1  # floor sqrt(log log 1000)
    assert grid.j_max_exp == 4  # ceil(log2(1000^(1/3)))
    assert grid.hard_cap == 16
    raw = {1 * 2**j for j in range(grid.j_max_exp + 1)}
    assert raw == {1, 2, 4, 8, 16}
    assert set(grid.j_list) <= raw
    assert all(j <= grid.j_max_hat for j in grid.j_list)


def test_grid_explicit_literal():
    cfg = RunConfig(grid=(3, 4, 5))
    gen = np.random.default_rng(1)
    x, w = gen.uniform(size=400), gen.uniform(size=400)
    grid = scan_grid(x, w, cfg)
    assert grid.j_list == (3, 4, 5)
    assert set(grid.shat) == {3, 4, 5}


def test_grid_explicit_below_minimum_rejected():
    cfg = RunConfig(grid=(2, 3))
    gen = np.random.default_rng(2)
    with pytest.raises(InputError):
        scan_grid(gen.uniform(size=100), gen.uniform(size=100), cfg)


def test_grid_singleton_degenerates_to_fixed_j():
    data = generate(DesignConfig("I", 300, 0.5, HSpec("mono", c0=0.1), RngStream(3, 1)))
    cfg = RunConfig(grid=(4,), k_factor=2)
    rep = adaptive_test(data.y, data.x, data.w, NullSpec.from_name("decreasing"), config=cfg)
    assert rep.grid.j_list == (4,)
    assert rep.p_threshold == pytest.approx(0.05)


def test_grid_dyadic_lifts_and_dedupes():
    data = generate(DesignConfig("I", 500, 0.7, HSpec("mono", c0=0.1), RngStream(3, 2)))
    cfg = RunConfig(grid="dyadic", k_factor=2)
    grid = scan_grid(data.x, data.w, cfg, data.y)
    assert grid.j_list[0] == 3  # raw {1, 2} lifted to the quadratic-spline minimum
    assert len(set(grid.j_list)) == len(grid.j_list)


def test_grid_knots_mode_consecutive():
    data = generate(DesignConfig("I", 500, 0.7, HSpec("mono", c0=0.1), RngStream(3, 3)))
    cfg = RunConfig(grid="knots", k_factor=2)
    grid = scan_grid(data.x, data.w, cfg, data.y)
    assert grid.j_list == tuple(range(3, grid.j_max_hat + 1))


def test_grid_needs_20_obs():
    gen = np.random.default_rng(5)
    with pytest.raises(InputError):
        scan_grid(gen.uniform(size=10), gen.uniform(size=10), RunConfig())


# ------------------------------------------------------------- D and v_hat


def test_compute_D_zero_residuals(rng):
    fit, _, _, y = small_fit(rng)
    assert compute_D(fit.scaled_map, np.zeros(y.size)) == 0.0


def test_compute_D_matches_brute_force_small(rng):
    for n in (4, 7, 12):
        x, w = rng.uniform(size=n), rng.uniform(size=n)
        psi = eval_design(BasisSpec("power", 2), x)
        b = eval_design(BasisSpec("power", 3), w)
        fit = fit_from_design(psi, b)
        r = rng.normal(size=n)
        assert compute_D(fit.scaled_map, r) == pytest.approx(brute_D(r, psi, b), rel=1e-10, abs=1e-12)


def test_compute_D_quadratic_scaling(rng):
    fit, _, _, y = small_fit(rng)
    r = rng.normal(size=y.size)
    base = compute_D(fit.scaled_map, r)
    assert compute_D(fit.scaled_map, 3.0 * r) == pytest.approx(9.0 * base, rel=1e-10)


def test_compute_D_weighted_matches_brute(rng):
    n = 25
    x, w = rng.uniform(size=n), rng.uniform(size=n)
    psi = eval_design(bspline(3), x)
    b = eval_design(bspline(6), w)
    mu = rng.uniform(0.5, 1.5, size=n)
    fit = fit_from_design(psi, b, mu=mu)
    r = rng.normal(size=n)
    assert compute_D(fit.scaled_map, r) == pytest.approx(brute_D(r, psi, b, mu), rel=1e-9, abs=1e-12)


def test_vhat_zero_and_constant_residuals(rng):
    fit, psi, b, y = small_fit(rng)
    # the structural outcome's v_J: _vhat_scaling on a fresh fit.scaled_map, formed on each access
    assert _vhat_scaling(fit.scaled_map, np.zeros(y.size)) == 0.0
    c = 2.7
    base = _vhat_scaling(fit.scaled_map, np.ones(y.size))
    assert _vhat_scaling(fit.scaled_map, c * np.ones(y.size)) == pytest.approx(c**2 * base, rel=1e-10)


def test_vhat_matches_brute_force(rng):
    for _ in range(15):
        n = 35
        x, w = rng.uniform(size=n), rng.uniform(size=n)
        psi = eval_design(bspline(4), x)
        b = eval_design(bspline(8), w)
        y = rng.normal(size=n)
        fit = fit_from_design(psi, b)
        u = rng.normal(size=n)
        assert _vhat_scaling(fit.scaled_map, u) == pytest.approx(brute_vhat(u, psi, b), rel=1e-8)
    assert _vhat_scaling(fit.scaled_map, y - psi @ fit.coefficients(y)) >= 0.0


def test_D_and_v_equal_their_squared_map_oracles_bit_for_bit():
    # compute_D adds S's squared rows one at a time and _vhat_scaling scales S in place; on C-ordered maps,
    # which fit_from_design forms, both equal the formulas that formed S**2 and S * u, to the last bit
    gen = np.random.default_rng(11)
    for n in (25, 20_000):
        for j in range(1, 17):
            for scale in (1e-50, 1e50):
                s, r = scale * gen.normal(size=(j, n)), gen.normal(size=n)
                kept = s.copy()
                assert compute_D(s, r) == compute_D_squares(s, r)
                np.testing.assert_array_equal(s, kept)  # compute_D does not scale the caller's map
                assert _vhat_scaling(s, r) == compute_vhat_product(kept, r)


@pytest.mark.parametrize("null, basis", [
    *[(shape, basis) for shape in ("decreasing", "increasing", "convex", "concave") for basis in ("bspline2", "bspline3")],
    *[(model, basis) for model in ("linear", "quadratic") for basis in ("bspline2", "bspline3", "cosine", "power")],
])
def test_each_reported_D_and_v_equal_the_brute_oracles_of_its_residuals(null, basis):
    # the D_J and v_J decide reads, as the structural scan computes them, against the dense-projector oracles of
    # the candidate's residuals, which oracles rebuild: beta by the normal equations, a shape null's restricted fit
    # by the per-call Cholesky cone projection, a parametric one by a dense-projector 2SLS
    data = generate(DesignConfig("I", 300, 0.5, HSpec("sin", c_a=1.0), RngStream(7, 3)))
    # a power instrument sieve of K = 4 J columns is singular at n = 300 for J >= 3, so it scans with K = 2 J; at
    # J = 4 the oracles' dense pinv of the Vandermonde gram keeps 8 digits of D_J (the scan keeps 11, against
    # 50-digit arithmetic), so the power scan stops at J = 3
    grid, k_factor = ((3, 4, 5, 6), 4) if basis != "power" else ((2, 3), 2)
    grid = tuple(j + (basis == "bspline3") for j in grid)  # a cubic spline needs J >= 4
    config, spec = RunConfig(basis=basis, grid=grid, k_factor=k_factor), NullSpec.from_name(null)
    report = adaptive_test(data.y, data.x, data.w, spec, config)
    assert tuple(rec.j for rec in report.per_j) == grid
    active_rows = [rec.n_active for rec in report.per_j]
    assert spec.kind == "parametric" or max(active_rows) > 0  # the cone projects
    assert null != "decreasing" or min(active_rows) > 0  # every decreasing cone projects
    for rec in report.per_j:
        psi_spec = config.psi_spec(rec.j)
        psi, b = eval_design(psi_spec, data.x), eval_design(config.psi_spec(rec.k), data.w)
        beta = brute_coeffs(data.y, psi, b)
        if spec.kind == "shape":
            beta_r, active = cone_project_cholesky(beta, psi.T @ psi, spec.constraints(psi_spec))
            restricted = data.y - psi @ beta_r
            assert rec.n_active == len(active)
        else:
            z, p_b = np.vander(data.x, 2 if null == "linear" else 3, increasing=True), dense_projector(b)
            restricted = data.y - z @ np.linalg.solve(z.T @ p_b @ z, z.T @ p_b @ data.y)
        assert rec.d_stat == pytest.approx(brute_D(restricted, psi, b), rel=1e-8)
        assert rec.v_stat == pytest.approx(brute_vhat(data.y - psi @ beta, psi, b), rel=1e-8)


@pytest.mark.parametrize("null", ["decreasing", "increasing", "convex", "concave", "linear", "quadratic"])
def test_structural_outcome_scales_its_own_map(null):
    # the outcome scales its fresh fit.scaled_map by u in place for v_J, after D_J has read it: both equal the
    # old formulas on a map formed apart, and the fit still forms the same map afterwards
    data = generate(DesignConfig("I", 500, 0.5, HSpec("mono", c0=0.3), RngStream(4, 2)))
    config, spec = RunConfig(), NullSpec.from_name(null)
    for j in (3, 4, 5):
        psi_spec = config.psi_spec(j)
        psi = eval_design(psi_spec, data.x)
        fit = fit_from_design(psi, eval_design(config.psi_spec(config.k_factor * j), data.w))
        s = fit.scaled_map
        rows = spec.constraints(psi_spec) if spec.kind == "shape" else None
        null_fit = (fit_restricted_parametric(data.x, spec.model, fit.q, fit.r) if rows is None
                    else npiv_module._Cone(rows.rows, fit.gram_weighted, fit.l_inv_t))
        entry = adaptive_module._structural_outcome((j, fit.s_hat, psi, fit, rows, null_fit), data.y, None)
        beta = fit.coefficients(data.y)
        u = data.y - psi @ beta
        r = (data.y - psi @ cone_fit(fit, rows, beta)[0] if rows is not None
             else data.y - null_fit.z @ null_fit.coefficients(data.y))
        assert entry.v_stat == _vhat_scaling(s.copy(), u) == compute_vhat_product(s, u)
        assert entry.d_stat == compute_D(s, r) == compute_D_squares(s, r)
        np.testing.assert_array_equal(fit.scaled_map, s)


# --------------------------------------------------------------- gamma / eta


def test_gamma_floor_and_equality(rng):
    fit, psi, _, y = small_fit(rng, n=60, j=4, k=8)
    m = deriv_constraints(bspline(4), "decreasing")
    _, active = cone_fit(fit, m, fit.coefficients(y))
    assert gamma_hat(m, active) >= 1
    assert gamma_hat(m, np.empty(0, dtype=int)) == 1
    # a parametric (equality) null has J degrees of freedom
    data = generate(DesignConfig("I", 300, 0.5, HSpec("mono", c0=0.5), RngStream(5, 0)))
    _, entries, _, _ = adaptive_scan(data.y, data.x, data.w, NullSpec.from_name("linear"), RunConfig(grid=(3, 5)))
    assert [e.gamma for e in entries] == [3, 5]


def test_gamma_counts_active_rank():
    # a strongly increasing target activates every monotonicity row
    spec = bspline(4)
    xs = np.linspace(0, 1, 300)
    design = eval_design(spec, xs)
    coef, *_ = np.linalg.lstsq(design, 3.0 * xs, rcond=None)
    m = deriv_constraints(spec, "decreasing")
    gen = np.random.default_rng(8)
    x, w = gen.uniform(size=200), gen.uniform(size=200)
    psi = eval_design(spec, x)
    b = eval_design(bspline(8), w)
    y = psi @ coef  # noiseless increasing signal
    fit = fit_from_design(psi, b)
    _, active = cone_fit(fit, m, fit.coefficients(y))
    assert gamma_hat(m, active) == np.linalg.matrix_rank(m.rows)


def test_gamma_is_the_rank_of_the_unit_active_rows():
    # matrix_rank's cutoff is relative to the longest row, so on the raw rows 27 of these 1 000 sets lost a row
    # scaled down by 10^U(-8, 8) against another
    gen = np.random.default_rng(0)
    changed = 0
    for _ in range(1000):
        j = int(gen.integers(2, 7))
        rows = gen.standard_normal((int(gen.integers(2, j + 1)), j))
        scaled = rows * 10.0 ** gen.uniform(-8.0, 8.0, size=(rows.shape[0], 1))
        active = np.arange(rows.shape[0])
        raw, rescaled = (ConstraintMatrix(m, "custom") for m in (rows, scaled))
        changed += gamma_hat(raw, active) != gamma_hat(rescaled, active)
    assert changed == 0


def test_eta_closed_form_and_limit():
    assert eta_hat(math.exp(-1.0), 1, 2) == pytest.approx(0.0, abs=1e-10)
    a = 0.05
    limit = math.sqrt(2.0) * ndtri(1.0 - a)
    # gap to the normal limit is O(1/sqrt(gamma)); ~0.011 at 1e4, so check at 1e6
    gaps = [abs(eta_hat(a, 1, g) - limit) for g in (10_000, 1_000_000)]
    assert gaps[1] < gaps[0]
    assert gaps[1] <= 1e-2
    got = eta_hat(0.05, 3, 3)
    expected = (chisq_quantile_bisect(0.05 / 3.0, 3) - 3.0) / math.sqrt(3.0)
    assert got == pytest.approx(expected, abs=1e-7)


def test_eta_monotonicity():
    for gamma in (1, 3, 10):
        etas_alpha = [eta_hat(a, 2, gamma) for a in (0.01, 0.05, 0.10, 0.20)]
        assert all(e2 < e1 for e1, e2 in zip(etas_alpha, etas_alpha[1:]))
        etas_size = [eta_hat(0.05, s, gamma) for s in (1, 2, 4, 8)]
        assert all(e2 > e1 for e1, e2 in zip(etas_size, etas_size[1:]))


# ------------------------------------------------------------ adaptive test


def _design1_report(seed=0, n=500, c0=0.1, xi=0.5, **cfg_kw):
    data = generate(DesignConfig("I", n, xi, HSpec("mono", c0=c0), RngStream(17, seed)))
    cfg = RunConfig(grid=cfg_kw.pop("grid", "knots"), k_factor=cfg_kw.pop("k_factor", 2), **cfg_kw)
    return adaptive_test(data.y, data.x, data.w, NullSpec.from_name("decreasing"), config=cfg)


def test_decision_rule_consistency():
    rep = _design1_report()
    assert rep.reject == any(rec.w_stat > 1.0 for rec in rep.per_j)
    if not rep.reject:
        best = max(rep.per_j, key=lambda rec: (rec.w_stat, -rec.j))
        assert rep.j_reported == best.j
        assert rep.j_selected_set == (best.j,)
    assert rep.p_threshold == pytest.approx(rep.alpha / rep.grid.size)
    assert rep.p_value == pytest.approx(min(rec.p_value for rec in rep.per_j))


def test_rejection_reports_smallest_rejecting_j():
    # strongly increasing truth vs decreasing null forces rejection
    data = generate(DesignConfig("I", 500, 0.7, HSpec("sin", c_a=2.0), RngStream(18, 0)))
    cfg = RunConfig(grid="knots", k_factor=2)
    rep = adaptive_test(data.y, data.x, data.w, NullSpec.from_name("decreasing"), config=cfg)
    assert rep.reject
    rejecting = [rec.j for rec in rep.per_j if rec.w_stat > 1.0]
    assert rep.j_reported == min(rejecting)
    assert rep.j_selected_set == tuple(rejecting)


def test_w_scale_invariance():
    data = generate(DesignConfig("I", 300, 0.5, HSpec("sin", c_a=0.3, c_b=0.5), RngStream(19, 0)))
    for null in (NullSpec.from_name("decreasing"), NullSpec.from_name("linear")):
        cfg = RunConfig(grid="knots", k_factor=2)
        base = adaptive_test(data.y, data.x, data.w, null, config=cfg)
        for c in (0.1, 3.0, 100.0):
            scaled = adaptive_test(c * data.y, data.x, data.w, null, config=cfg)
            assert scaled.grid.j_list == base.grid.j_list
            for r1, r2 in zip(base.per_j, scaled.per_j):
                assert r2.w_stat == pytest.approx(r1.w_stat, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("null", ["decreasing", "linear"])
@pytest.mark.parametrize("seed, n, weighted", [(0, 400, False), (1, 800, True), (2, 1500, False)])
def test_report_invariant_under_row_permutation(null, seed, n, weighted):
    # the test reads its sample as a set of rows: permuting (y, x, w, mu) together moves no decision and no
    # selected J, and every float of the report by rounding only; seeds 1 and 2 reject, seed 0 does not
    data = generate(DesignConfig("I", n, 0.8, HSpec("sin", c_a=seed, c_b=0.5), RngStream(seed, 9)))
    gen = np.random.default_rng(seed)
    mu = gen.uniform(0.5, 1.5, n) if weighted else np.ones(n)
    order = gen.permutation(n)
    base, permuted = (adaptive_test(data.y[rows], data.x[rows], data.w[rows], NullSpec.from_name(null),
                                    RunConfig(grid="knots"), mu[rows]).to_dict() for rows in (np.arange(n), order))
    assert base["reject"] == (seed > 0)
    assert (permuted["reject"], permuted["J_selected_set"]) == (base["reject"], base["J_selected_set"])
    assert not _differences(base, permuted, "report")


@pytest.mark.parametrize("case", ["structural-decreasing", "structural-linear", "image-space-linear"])
def test_decision_invariant_under_y_scaling(case):
    data = generate(DesignConfig("I", 1000, 0.9, HSpec("mono", c0=0.5), RngStream(19, 0)))
    cfg = RunConfig(grid="knots", k_factor=2)
    null = case.rsplit("-", 1)[1]
    y = data.y + 2.0 * (data.x if null == "decreasing" else np.sin(2.0 * np.pi * data.x))

    def run(yy):
        if case.startswith("image-space"):
            return image_space_test(yy, data.x, data.w, null, config=cfg)
        return adaptive_test(yy, data.x, data.w, NullSpec.from_name(null), config=cfg)

    base = run(y)
    assert base.reject
    for k in (-140, -100, -60, -13, -12, -9, -6, 6, 9, 12, 60, 100, 140):
        scaled = run(10.0**k * y)
        assert scaled.reject == base.reject
        assert scaled.grid.j_list == base.grid.j_list
        assert [(r.n_active, r.gamma) for r in scaled.per_j] == [(r.n_active, r.gamma) for r in base.per_j]
        for r1, r2 in zip(base.per_j, scaled.per_j):
            assert r2.w_stat == pytest.approx(r1.w_stat, rel=1e-9)
            assert r2.p_value == pytest.approx(r1.p_value, rel=1e-9)
    # beyond the float range the squares in D and v underflow to 0 or overflow: no verdict, exit 3
    for k, message in ((-200, "D=0.0 underflowed"), (200, "non-finite statistic")):
        with pytest.raises(NumericalError, match=message):
            run(10.0**k * y)


@pytest.mark.parametrize("run", [
    lambda y, d: adaptive_test(y, d.x, d.w, NullSpec.from_name("decreasing")),
    lambda y, d: adaptive_test(y, d.x, d.w, NullSpec.from_name("linear")),
    lambda y, d: image_space_test(y, d.x, d.w, "linear"),
    lambda y, d: cs_contains(np.zeros_like(y), y, d.x, d.w),
], ids=["decreasing", "linear", "image-space", "cs"])
def test_overflowing_outcome_fails_without_numpy_warnings(run):
    # y x 1e200 overflows D and v: the decision rule refuses the non-finite statistic, and the
    # outcome computations that overflowed on the way print nothing
    data = generate(DesignConfig("I", 1000, 0.5, HSpec("sin", c_a=2.0, c_b=1.0), RngStream(19, 0)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalError, match="non-finite statistic"):
            run(1e200 * data.y, data)
    assert [str(w.message) for w in caught] == []


def test_alpha_validation():
    data = generate(DesignConfig("I", 200, 0.5, HSpec("mono", c0=0.5), RngStream(20, 0)))
    with pytest.raises(InputError):
        adaptive_test(data.y, data.x, data.w, NullSpec.from_name("decreasing"), config=RunConfig(alpha=1.2))


@pytest.mark.parametrize("bad_mu", [
    lambda n: np.ones(n - 1),  # short
    lambda n: np.ones((n, 1)),  # 2-d
    lambda n: np.where(np.arange(n) == 3, np.nan, 1.0),  # NaN entry
    lambda n: -np.ones(n),  # negative
    lambda n: np.zeros(n),  # no positive entry
], ids=["short", "2d", "nan", "negative", "zero"])
def test_malformed_weights_are_input_errors(bad_mu):
    data = generate(DesignConfig("I", 200, 0.5, HSpec("mono", c0=0.5), RngStream(20, 1)))
    mu = bad_mu(200)
    null = NullSpec.from_name("decreasing")
    with pytest.raises(InputError, match="weight"):
        adaptive_test(data.y, data.x, data.w, null, mu=mu)
    with pytest.raises(InputError, match="weight"):
        cs_contains(lambda x: -x, data.y, data.x, data.w, null=null, mu=mu)
    with pytest.raises(InputError, match="weight"):
        fit_from_design(eval_design(bspline(4), data.x), eval_design(bspline(8), data.w), mu)


def test_config_schema_version_is_not_settable():
    with pytest.raises(TypeError):
        RunConfig(schema_version=2)
    assert RunConfig().to_dict()["schema_version"] == 1
    assert RunConfig.from_dict({"schema_version": 1, "alpha": 0.1}).alpha == 0.1
    with pytest.raises(InputError, match="schema version"):
        RunConfig.from_dict({"schema_version": 2})


def test_config_checks_the_knot_rule_at_construction():
    with pytest.raises(InputError, match="unknown knot rule 'weird'"):
        RunConfig(knot_rule="weird")
    assert RunConfig(knot_rule="quantile").knot_rule == "quantile"


@pytest.mark.parametrize("grid", [[3.9, 8], ["3"], [True, 4]], ids=["float", "numeric-text", "bool"])
def test_config_grid_takes_integer_entries_only(grid):
    # an entry int() would turn into another J (3.9 -> 3, True -> 1) names no dimension
    with pytest.raises(InputError, match="explicit grid entry must be an integer >= 1"):
        RunConfig(grid=grid)
    assert RunConfig(grid=[np.int64(8), 3, 3]).grid == (3, 8)


def test_golden_report_snapshot():
    data = generate(DesignConfig("I", 200, 0.5, HSpec("mono", c0=0.1), RngStream(123, 7)))
    cfg = RunConfig(grid="knots", k_factor=2)
    rep = adaptive_test(data.y, data.x, data.w, NullSpec.from_name("decreasing"), config=cfg)
    got = rep.to_dict()
    path = DATA_DIR / "golden_report_n200.json"
    expected = json.loads(path.read_text())
    assert got["grid"] == expected["grid"]
    assert got["reject"] == expected["reject"]
    assert got["J_reported"] == expected["J_reported"]
    for rec_got, rec_exp in zip(got["per_J"], expected["per_J"]):
        for key in ("J", "K", "gamma", "n_active"):
            assert rec_got[key] == rec_exp[key], key
        for key in ("D", "v", "s_hat", "eta", "W", "p_value"):
            assert rec_got[key] == pytest.approx(rec_exp[key], rel=1e-12), key


def test_martingale_limit_sanity():
    # simple equality null (known h0), fixed J: sqrt(J) n D(h0) / v should look
    # like a centered chi-square with J degrees of freedom; the confidence set's
    # per-J row holds D on the candidate's residuals y - h0 and v
    reps = 2000
    stats = []
    j_dim, n = 3, 500
    cfg = RunConfig(grid=(j_dim,), k_factor=2)
    null = NullSpec.from_name("linear")
    truth = HSpec("sin", c_a=0.0)
    for r in range(reps):
        data = generate(DesignConfig("I", n, 0.7, truth, RngStream(77, r)))
        _, _, detail = cs_contains(truth(data.x), data.y, data.x, data.w, config=cfg, null=null)
        (row,) = detail["per_J"]
        assert row["J"] == j_dim
        stats.append(math.sqrt(j_dim) * n * row["D_candidate"] / row["v"])
    arr = np.asarray(stats)
    assert abs(arr.mean()) <= 0.2  # chi2_J - J has mean 0
    assert abs(arr.var() - 2.0 * j_dim) <= 0.5  # ... and variance 2J


@pytest.mark.parametrize("basis", ["cosine", "power"])
def test_builtin_shape_null_needs_a_bspline_basis_before_the_grid(monkeypatch, basis):
    data = generate(DesignConfig("I", 300, 0.5, HSpec("mono", c0=0.1), RngStream(21, 3)))
    cfg = RunConfig(basis=basis)
    null = NullSpec.from_name("decreasing")
    evaluated = []
    design = adaptive_module.eval_design
    monkeypatch.setattr(adaptive_module, "eval_design", lambda *a: evaluated.append(a) or design(*a))
    message = f"the decreasing null's derivative constraints require a B-spline basis, got '{basis}'"
    with pytest.raises(InputError, match=message):
        adaptive_test(data.y, data.x, data.w, null, config=cfg)
    with pytest.raises(InputError, match=message):
        cs_contains(lambda x: -x, data.y, data.x, data.w, config=cfg, null=null)
    assert evaluated == []
    # custom rows need no derivative, so any basis takes them
    custom = NullSpec(kind="shape", shape="first-coefficient",
                      custom_rows=lambda spec: ConstraintMatrix(np.eye(1, spec.dim), "custom"))
    rep = adaptive_test(data.y, data.x, data.w, custom, config=cfg)
    assert rep.per_j and evaluated


# ------------------------------------------------------- one pass per candidate


def _count_calls(monkeypatch, name, modules):
    """Count calls of the function bound as `name` in each of `modules`."""
    original = getattr(modules[0], name)
    counter = {"calls": 0}

    def counting(*args, **kwargs):
        counter["calls"] += 1
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return counter


def test_shape_null_evaluates_each_design_once_per_candidate(monkeypatch):
    # Psi_J, B_K and the constraint rows: the stability scan and the
    # statistics share one evaluation of each
    evals = _count_calls(monkeypatch, "eval_design", (adaptive_module, basis_module))
    data = generate(DesignConfig("I", 1000, 0.5, HSpec("mono", c0=0.1), RngStream(4, 1)))
    rep = adaptive_test(data.y, data.x, data.w, NullSpec.from_name("decreasing"),
                        config=RunConfig(grid="knots", k_factor=2))
    assert rep.grid.size >= 2
    assert evals["calls"] <= 3 * rep.grid.size


def test_a_shape_null_test_calls_neither_cholesky_nor_solve(monkeypatch):
    # the cone projection whitens its rows with the fit's own factor of Psi'Omega Psi
    data = generate(DesignConfig("I", 400, 0.5, HSpec("sin", c_a=2.0), RngStream(18, 0)))  # draws by Cholesky
    calls = {name: _count_calls(monkeypatch, name, (np.linalg,)) for name in ("cholesky", "solve")}
    rep = adaptive_test(data.y, data.x, data.w, NullSpec.from_name("decreasing"), config=RunConfig(grid="knots"))
    assert any(rec.n_active for rec in rep.per_j)
    assert calls["cholesky"]["calls"] == calls["solve"]["calls"] == 0


def test_parametric_null_factors_each_instrument_design_once(monkeypatch):
    factorizations = _count_calls(monkeypatch, "orthonormal_range", (adaptive_module, npiv_module))
    data = generate(DesignConfig("I", 500, 0.5, HSpec("sin", c_a=0.5, c_b=0.5), RngStream(4, 2)))
    rep = adaptive_test(data.y, data.x, data.w, NullSpec.from_name("linear"),
                        config=RunConfig(grid="knots", k_factor=2))
    assert factorizations["calls"] == rep.grid.size
    factorizations["calls"] = 0
    rep = image_space_test(data.y, data.x, data.w, "linear")
    assert factorizations["calls"] == len(rep.per_j)


@pytest.mark.parametrize("null, svds", [("decreasing", 1), ("linear", 2)])
def test_structural_candidate_decomposes_each_matrix_once(monkeypatch, null, svds):
    # one SVD of the orthonormalized cross-gram U_B'Psi L^{-T} gives the fit,
    # the scaled map and s_J, plus Z's projection U_B'Z for a parametric null;
    # eigh of B'B (U_B) and of Psi'Omega Psi (L)
    calls = {name: _count_calls(monkeypatch, name, (np.linalg,)) for name in ("svd", "eigh", "eigvalsh")}
    data = generate(DesignConfig("I", 1000, 0.5, HSpec("mono", c0=0.1), RngStream(4, 3)))
    rep = adaptive_test(data.y, data.x, data.w, NullSpec.from_name(null), config=RunConfig(grid=(3, 4, 5)))
    assert rep.grid.size == 3
    assert calls["svd"]["calls"] <= svds * rep.grid.size
    assert calls["eigh"]["calls"] <= 2 * rep.grid.size
    assert calls["eigvalsh"]["calls"] == 0


@pytest.mark.parametrize("null", ["decreasing", "linear"])
def test_stability_scan_reads_y_only_in_candidate_visits(monkeypatch, null):
    # this dyadic scan steps J = 3, 4, 5 and stops at J_max_hat = 5, which is no dyadic candidate:
    # the factor reads no y, and the y-part runs once per candidate, at the candidates only
    stepped, visited = [], []
    factor, coefficients = adaptive_module.fit_from_design, npiv_module.NpivFit.coefficients

    def recording_factor(psi, *args):
        stepped.append(psi.shape[1])
        return factor(psi, *args)

    def recording_coefficients(fit, y):
        visited.append(fit.l_inv_t.shape[0])
        return coefficients(fit, y)

    monkeypatch.setattr(adaptive_module, "fit_from_design", recording_factor)
    monkeypatch.setattr(npiv_module.NpivFit, "coefficients", recording_coefficients)
    data = generate(DesignConfig("I", 5000, 0.5, HSpec("mono", c0=0.5), RngStream(1, 0)))
    grid = adaptive_scan(data.y, data.x, data.w, NullSpec.from_name(null), RunConfig())[0]
    assert grid.j_list == (3, 4) and grid.j_max_hat == 5
    assert stepped == [3, 4, 5]
    assert visited == list(grid.j_list)


def test_adaptive_test_fits_each_stepped_j_once_through_fit_from_design(monkeypatch):
    # the structural step has one fit path, the public kernel: one fit_from_design call per stepped J
    fitted, fit = [], adaptive_module.fit_from_design

    def recording_fit(psi, b, *args):
        fitted.append((psi.shape[1], b.shape[1]))
        return fit(psi, b, *args)

    monkeypatch.setattr(adaptive_module, "fit_from_design", recording_fit)
    data = generate(DesignConfig("I", 1000, 0.5, HSpec("mono", c0=0.1), RngStream(4, 3)))
    rep = adaptive_test(data.y, data.x, data.w, NullSpec.from_name("decreasing"), config=RunConfig(grid="knots"))
    assert rep.grid.size >= 2
    assert fitted == [(j, 4 * j) for j in sorted(rep.grid.shat)]


def test_image_space_candidate_decomposes_each_instrument_design_once(monkeypatch):
    # one eigh of B_K'B_K gives U_B for D_K, v_K and the fit; one SVD for U_B'Z
    calls = {name: _count_calls(monkeypatch, name, (np.linalg,)) for name in ("svd", "eigh")}
    data = generate(DesignConfig("I", 1000, 0.5, HSpec("sin", c_a=0.5), RngStream(4, 4)))
    rep = image_space_test(data.y, data.x, data.w, "linear")
    assert len(rep.per_j) >= 2
    assert calls["svd"]["calls"] <= len(rep.per_j)
    assert calls["eigh"]["calls"] <= len(rep.per_j)


@pytest.mark.parametrize("basis, grid, tensor", [
    ("bspline2", (4, 8), True), ("bspline3", (4, 8), False), ("cosine", (4, 8), True), ("power", (2,), False),
], ids=["bspline2", "bspline3", "cosine", "power"])
def test_well_conditioned_instrument_designs_take_no_tall_svd(monkeypatch, basis, grid, tensor):
    # B-spline and cosine instrument designs (K = 16, 32, and 2-d tensor
    # products) are factored through their K x K gram; the power series at
    # K = 8 is too ill-conditioned for it and falls back to the n x K SVD.
    # A 2-d tensor of cubic B-splines has cond(B'B) near 35^2 and takes the SVD.
    n = 1000
    tall = {"calls": 0}
    original = np.linalg.svd

    def counting(a, *args, **kwargs):
        tall["calls"] += np.shape(a)[0] == n
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    cfg = RunConfig(basis=basis, grid=grid)
    data = generate(DesignConfig("I", n, 0.5, HSpec("mono", c0=0.1), RngStream(4, 5)))
    rep = adaptive_test(data.y, data.x, data.w, NullSpec.from_name("linear"), config=cfg)
    assert [rec.k for rec in rep.per_j] == [4 * j for j in grid]
    if tensor:
        data = generate(DesignConfig("multivariate", n, 0.5, HSpec("sin", c_a=0.5), RngStream(4, 5)))
        rep = image_space_test(data.y, data.x, data.w, np.column_stack([np.ones(n), data.x]), config=cfg)
        assert max(rec.k for rec in rep.per_j) >= 9
    assert (tall["calls"] > 0) == (basis == "power")


# ------------------------------------------------------------ confidence set


def test_cs_contains_restricted_fit_when_not_rejecting():
    data = generate(DesignConfig("I", 400, 0.5, HSpec("mono", c0=0.1), RngStream(21, 3)))
    cfg = RunConfig(grid="knots", k_factor=2)
    null = NullSpec.from_name("decreasing")
    rep = adaptive_test(data.y, data.x, data.w, null, config=cfg)
    assert not rep.reject
    # rebuild the restricted fit at some grid J and test its membership
    j = rep.grid.j_list[0]
    psi_spec = cfg.psi_spec(j)
    psi = eval_design(psi_spec, data.x)
    fit = fit_from_design(psi, eval_design(cfg.psi_spec(2 * j), data.w))
    beta_r, _ = cone_fit(fit, deriv_constraints(psi_spec, "decreasing"), fit.coefficients(data.y))
    contained, binding, _ = cs_contains((beta_r, psi_spec), data.y, data.x, data.w, config=cfg, null=null)
    assert contained and binding is None


def test_cs_excludes_shifted_candidate():
    data = generate(DesignConfig("I", 400, 0.5, HSpec("mono", c0=1.0), RngStream(22, 1)))
    cfg = RunConfig(grid="knots", k_factor=2)
    null = NullSpec.from_name("decreasing")
    truth = HSpec("mono", c0=1.0)
    contained, *_ = cs_contains(lambda x: truth(x), data.y, data.x, data.w, config=cfg, null=null)
    assert contained
    shifted, binding, _ = cs_contains(
        lambda x: truth(x) + 10.0, data.y, data.x, data.w, config=cfg, null=null
    )
    assert not shifted and binding is not None


def test_a_labelled_custom_rows_null_checks_no_builtin_shape_in_cs_contains():
    # a custom_rows null's shape is only a label: increasing rows labelled "decreasing" take the increasing
    # candidate x, and give the unlabelled null's answer
    data = generate(DesignConfig("I", 500, 0.5, HSpec("mono", c0=0.3), RngStream(4, 2)))
    answers = [cs_contains(lambda x: x, data.y, data.x, data.w, RunConfig(), NullSpec(
        kind="shape", shape=shape, custom_rows=lambda spec: deriv_constraints(spec, "increasing")))[:2]
        for shape in (None, "decreasing")]
    assert answers == [(False, 3), (False, 3)]


@pytest.mark.parametrize("c_a", [0.0, 10.0], ids=["null", "alternative"])
def test_cs_contains_is_the_test_on_the_candidate_residuals(c_a):
    # with the restricted fit as candidate, y - h0 are the restricted residuals, so the
    # confidence set's verdict must be the test's own
    data = generate(DesignConfig("I", 500, 0.7, HSpec("sin", c_a=c_a), RngStream(24, 0)))
    cfg = RunConfig(grid=(4,), k_factor=2)
    null = NullSpec.from_name("linear")
    rep = adaptive_test(data.y, data.x, data.w, null, config=cfg)
    _, b = instrument_design(cfg, 8, data.w)
    fit = fit_from_design(eval_design(cfg.psi_spec(4), data.x), b)
    rfit = fit_restricted_parametric(data.x, "linear", fit.q, fit.r)
    contained, binding, detail = cs_contains(rfit.z @ rfit.coefficients(data.y), data.y, data.x, data.w, config=cfg,
                                             null=null)
    (rec,) = rep.per_j
    assert rep.reject == (c_a > 0.0)
    assert detail["per_J"] == [{"J": 4, "D_candidate": rec.d_stat, "v": rec.v_stat, "eta": rec.eta,
                                "contained": not rep.reject}]
    assert contained == (not rep.reject)
    assert binding == (4 if rep.reject else None)


def test_alpha_comes_from_the_config():
    data = generate(DesignConfig("I", 400, 0.5, HSpec("mono", c0=0.5), RngStream(20, 2)))
    cfg = RunConfig(alpha=0.01, grid="knots", k_factor=2)
    null = NullSpec.from_name("decreasing")
    structural = adaptive_test(data.y, data.x, data.w, null, config=cfg)
    for rep in (structural, image_space_test(data.y, data.x, data.w, "linear", config=cfg)):
        assert rep.alpha == rep.config["alpha"] == 0.01
        assert rep.p_threshold == 0.01 / len(rep.grid.j_list)
    _, _, detail = cs_contains(lambda x: 0.0 * x, data.y, data.x, data.w, config=cfg, null=null)
    assert detail["alpha"] == 0.01
    assert [row["eta"] for row in detail["per_J"]] == [
        eta_hat(0.01, len(detail["J_list"]), rec.gamma) for rec in structural.per_j
    ]


def test_cs_rejects_infeasible_cone_candidate():
    data = generate(DesignConfig("I", 300, 0.5, HSpec("mono", c0=0.5), RngStream(23, 2)))
    cfg = RunConfig(grid="knots", k_factor=2)
    with pytest.raises(InputError):
        cs_contains(lambda x: x, data.y, data.x, data.w, config=cfg,
                    null=NullSpec.from_name("decreasing"))  # increasing candidate


def test_cs_infeasibility_does_not_depend_on_scale():
    data = generate(DesignConfig("I", 400, 0.5, HSpec("mono", c0=0.5), RngStream(23, 2)))
    cfg = RunConfig(grid="knots", k_factor=2)
    null = NullSpec.from_name("decreasing")
    for s in (1.0, 1e-6, 1e-12):
        with pytest.raises(InputError, match="violates the decreasing restriction"):
            cs_contains(lambda x, s=s: s * x, data.y, data.x, data.w, config=cfg, null=null)
        cs_contains(lambda x, s=s: -s * x, data.y, data.x, data.w, config=cfg, null=null)
    spec = BasisSpec("bspline", 5, 3)
    for s in (1.0, 1e-6, 1e-10):
        with pytest.raises(InputError, match="violate the decreasing cone restriction"):
            cs_contains((s * np.arange(5.0), spec), data.y, data.x, data.w, config=cfg, null=null)
        cs_contains((-s * np.arange(5.0), spec), data.y, data.x, data.w, config=cfg, null=null)


def test_nonfinite_statistics_are_numerical_errors():
    # at y x 1e160 the D and v quadratic forms overflow to inf/nan; no decision may come from them
    data = generate(DesignConfig("I", 200, 0.5, HSpec("sin", c_a=2.0), RngStream(18, 0)))
    cfg = RunConfig(grid="knots", k_factor=2)
    null = NullSpec.from_name("decreasing")
    y = data.y * 1e160
    with pytest.raises(NumericalError, match="non-finite statistic at J=3"):
        adaptive_test(y, data.x, data.w, null, config=cfg)
    with pytest.raises(NumericalError, match="non-finite statistic at J=3"):
        cs_contains(lambda x: 0.0 * x, y, data.x, data.w, config=cfg, null=null)


def test_clamped_points_are_reported():
    data = generate(DesignConfig("I", 300, 0.5, HSpec("mono", c0=0.5), RngStream(23, 2)))
    x, w = data.x * 10.0, data.w - 0.02
    n_x, n_w = int(np.sum(x > 1.0)), int(np.sum(w < 0.0))
    assert n_x > 0 and n_w > 0
    rep = adaptive_test(data.y, x, w, NullSpec.from_name("decreasing"))
    assert rep.warnings[:2] == (f"{n_x} points of x outside [0.0, 1.0] were clamped",
                                f"{n_w} points of w outside [0.0, 1.0] were clamped")
    rep = image_space_test(data.y, x, w, "linear")
    assert rep.warnings[0] == f"{n_w} points of w outside [0.0, 1.0] were clamped"
    assert not any("clamped" in msg for msg in adaptive_test(data.y, data.x, data.w,
                                                             NullSpec.from_name("decreasing")).warnings)


# ------------------------------------------------------------- image space


def test_image_space_zero_residuals_never_rejects(rng):
    n = 200
    x = rng.uniform(size=n)
    w = rng.uniform(size=n)
    y = 0.4 - 0.2 * x  # exactly linear, no noise
    rep = image_space_test(y, x, w, "linear", config=RunConfig(k_factor=4))
    assert not rep.reject
    for rec in rep.per_j:
        assert rec.d_stat == pytest.approx(0.0, abs=1e-18)
        assert rec.w_stat == 0.0


def test_image_space_matches_brute_double_sum(rng):
    # the package's centered projection quadratic form equals the O(n^2) kernel sum
    n = 40
    x = rng.uniform(size=n)
    w = rng.uniform(size=n)
    y = 0.3 + 0.5 * x + rng.normal(size=n)
    cfg = RunConfig()
    rep = image_space_test(y, x, w, "linear", config=cfg)
    assert rep.per_j
    for rec in rep.per_j:
        _, b = instrument_design(cfg, rec.k, w)
        assert b.shape[1] == rec.k
        rfit = fit_restricted_parametric(x, "linear", *orthonormal_range(b)[:2])
        r = y - rfit.z @ rfit.coefficients(y)
        assert rec.d_stat == pytest.approx(brute_image_D(r, b), rel=1e-10)
        assert rec.v_stat == pytest.approx(image_vhat_gram(r, b), rel=1e-10)


def test_image_space_scan_keeps_one_instrument_design_alive(monkeypatch):
    built = []
    most_alive = 0
    instrument = adaptive_module._Designs.instrument

    def recording(self, config, k_target):
        nonlocal most_alive
        most_alive = max(most_alive, sum(ref() is not None for ref in built))
        b = instrument(self, config, k_target)
        built.append(weakref.ref(b))
        return b

    monkeypatch.setattr(adaptive_module._Designs, "instrument", recording)
    data = generate(DesignConfig("I", 500, 0.5, HSpec("sin", c_a=0.5), RngStream(4, 2)))
    image_space_test(data.y, data.x, data.w, "linear")
    assert len(built) >= 3
    assert most_alive <= 1


def test_structural_scan_keeps_one_candidate_design_pair_alive(monkeypatch):
    # a step's Psi_J and B_K, the factor built from them and a candidate's outcome are released soon
    # after the step: whenever a step builds its Psi_J, at most one earlier Psi and one earlier B are alive
    data = generate(DesignConfig("I", 500, 0.9, HSpec("mono", c0=0.3), RngStream(4, 2)))  # steps J = 3...6
    psis, bs = [], []
    most_alive = [0, 0]
    eval_design_, instrument = adaptive_module.eval_design, adaptive_module._Designs.instrument

    def alive(refs):
        return sum(ref() is not None for ref in refs)

    def recording_psi(spec, points):
        design = eval_design_(spec, points)
        if points is data.x:  # Psi_J; a 1-d B_K is evaluated at w
            most_alive[:] = max(most_alive[0], alive(psis)), max(most_alive[1], alive(bs))
            psis.append(weakref.ref(design))
        return design

    def recording_b(self, config, k_target):
        b = instrument(self, config, k_target)
        bs.append(weakref.ref(b))
        return b

    monkeypatch.setattr(adaptive_module, "eval_design", recording_psi)
    monkeypatch.setattr(adaptive_module._Designs, "instrument", recording_b)
    rep = adaptive_test(data.y, data.x, data.w, NullSpec.from_name("decreasing"))
    assert len(psis) == len(bs) == len(rep.grid.shat) > len(rep.grid.j_list) >= 2
    assert max(most_alive) <= 1


def test_image_space_scan_builds_each_tensor_design_once(monkeypatch):
    # at n = 5000 the knot-interval counts certify every step of a 2-d B-spline scan below K = 36, and the
    # exact step at K = 36 hands its design to the candidate there, so each candidate's design is built once
    # and nothing else is. A cosine tensor takes the exact step, and a 2-d w rounds every scanned K up to
    # the next per_dim^2, so the scan steps more indices than designs
    data = generate(DesignConfig("multivariate", 5000, 0.5, HSpec("quad", c_a=0.5), RngStream(4, 2)))
    built = []
    instrument = adaptive_module._Designs.instrument

    def recording(self, config, k_target):
        b = instrument(self, config, k_target)
        built.append(b.shape[1])
        return b

    monkeypatch.setattr(adaptive_module._Designs, "instrument", recording)
    rep = image_space_test(data.y, data.x, data.w, "linear")
    assert sorted(built) == sorted(rep.grid.j_list) == sorted(rep.grid.shat)  # builds == candidates
    built.clear()
    cosine = RunConfig(basis="cosine")
    rep = image_space_test(data.y, data.x, data.w, "linear", config=cosine)
    assert len(built) == len(rep.grid.shat)  # one build per distinct realized K stepped

    class Fresh(int):
        """An int equal only to itself, so no step finds its realized K among the built designs."""

        __eq__ = object.__eq__
        __hash__ = object.__hash__

    instrument_dim = RunConfig.instrument_dim
    monkeypatch.setattr(RunConfig, "instrument_dim", lambda self, k, d_w: Fresh(instrument_dim(self, k, d_w)))
    built.clear()
    adaptive_module._image_space_table.cache_clear()  # the scan reads realized dims from the per-process table
    try:
        bypassed = image_space_test(data.y, data.x, data.w, "linear", config=cosine)
    finally:
        adaptive_module._image_space_table.cache_clear()
    assert len(built) > len(rep.grid.shat)
    assert bypassed.to_dict() == rep.to_dict()


def test_passes_on_one_sample_share_its_tensor_factors(monkeypatch):
    # a structural pass and an image-space pass, on one _Designs of a multivariate sample, give the reports
    # each test gives alone, and every tensor factor is built once across both passes
    data = generate(DesignConfig("multivariate", 1000, 0.5, HSpec("quad", c_a=0.5), RngStream(4, 2)))
    null, config = NullSpec.from_name("linear"), RunConfig(grid="knots", k_factor=4)
    alone = [adaptive_test(data.y, data.x, data.w, null, config).to_dict(),
             image_space_test(data.y, data.x, data.w, "linear", config).to_dict()]
    built = Counter()
    eval_design_ = adaptive_module.eval_design

    def recording(spec, points):
        if points is not data.x:
            built[(spec.dim, points[0])] += 1
        return eval_design_(spec, points)

    monkeypatch.setattr(adaptive_module, "eval_design", recording)
    designs = adaptive_module._Designs(data.w)
    grid, (entries,), warn, (*_, n) = adaptive_module._structural_scan([data.y], data.x, data.w, null, config, designs)
    shared = [decide(grid, entries, n, null, config, warnings=warn).to_dict()]
    grid, (entries,), warn, (*_, n) = adaptive_module._image_space_scan([data.y], data.x, data.w, null, config, designs)
    shared.append(decide(grid, entries, n, null, config, warnings=warn).to_dict())
    assert shared == alone
    assert set(built.values()) == {1}
    assert (3, data.w[0, 0]) in built  # the image-space candidate K = 9 = 3 x 3 is built from these factors


def test_a_structural_pass_builds_each_psi_once_for_all_its_outcomes(monkeypatch):
    # two structural outcomes on one pass of a multivariate sample give the reports each test gives alone,
    # and each stepped Psi_J is built once for both
    data = generate(DesignConfig("multivariate", 1000, 0.5, HSpec("quad", c_a=0.5), RngStream(4, 2)))
    null, config = NullSpec.from_name("linear"), RunConfig(grid="knots", k_factor=4)
    ys = [data.y, data.y + np.sin(6.0 * data.x)]
    alone = [adaptive_test(y, data.x, data.w, null, config).to_dict() for y in ys]
    built = Counter()
    eval_design_ = adaptive_module.eval_design

    def recording(spec, points):
        if points is data.x:
            built[spec.dim] += 1
        return eval_design_(spec, points)

    monkeypatch.setattr(adaptive_module, "eval_design", recording)
    grid, results, warn, (*_, n) = adaptive_module._structural_scan(ys, data.x, data.w, null, config, None)
    assert [decide(grid, entries, n, null, config, warnings=warn).to_dict() for entries in results] == alone
    assert len(ys) == 2 and sorted(built) == sorted(grid.shat) and set(built.values()) == {1}


def test_each_candidate_builds_one_restricted_factor_for_all_its_outcomes(monkeypatch):
    # the parametric null's y-free factor is built in the visit, once per candidate however many outcomes read it
    data = generate(DesignConfig("I", 500, 0.5, HSpec("sin", c_a=0.5), RngStream(4, 2)))
    ys = [data.y, data.y + 1.0, data.y + np.sin(6.0 * data.x)]
    null, config = NullSpec.from_name("linear"), RunConfig(grid=(3, 4, 5))
    calls = _count_calls(monkeypatch, "fit_restricted_parametric", (adaptive_module,))
    grid, results, _, _ = adaptive_module._structural_scan(ys, data.x, data.w, null, config, None)
    assert grid.j_list == (3, 4, 5) and all(len(entries) == 3 for entries in results)
    assert calls["calls"] == 3
    calls["calls"] = 0
    grid, results, _, _ = adaptive_module._image_space_scan(ys, data.x, data.w, null, config, None)
    assert grid.size > 1 and all(len(entries) == grid.size for entries in results)
    assert calls["calls"] == grid.size


def test_an_outcome_error_ends_its_outcome_and_a_pass_error_every_running_one(monkeypatch):
    # on an explicit grid (3, 4, 5): the first outcome fails at J = 4 with its own error, and the fit of
    # J = 5 fails for the whole pass, which ends the two outcomes still running with that one error. A
    # public scan raises its outcome's error at once and steps no further
    data = generate(DesignConfig("I", 500, 0.5, HSpec("mono", c0=0.3), RngStream(4, 2)))
    ys = [data.y, data.y + 1.0, data.y + 2.0]
    outcome, fit = adaptive_module._structural_outcome, adaptive_module.fit_from_design
    fitted = []

    def failing_outcome(factor, y, **kwargs):
        if y is ys[0] and factor[0] == 4:
            raise NumericalError("outcome failure")
        return outcome(factor, y, **kwargs)

    def failing_fit(psi, *args):
        fitted.append(psi.shape[1])
        if psi.shape[1] == 5:
            raise NumericalError("pass failure")
        return fit(psi, *args)

    monkeypatch.setattr(adaptive_module, "_structural_outcome", failing_outcome)
    monkeypatch.setattr(adaptive_module, "fit_from_design", failing_fit)
    null, config = NullSpec.from_name("decreasing"), RunConfig(grid=(3, 4, 5))
    grid, results, _, _ = adaptive_module._structural_scan(ys, data.x, data.w, null, config, None)
    assert grid is None
    assert [str(res) for res in results] == ["outcome failure", "pass failure", "pass failure"]
    assert results[1] is results[2]
    fitted.clear()
    with pytest.raises(NumericalError, match="outcome failure"):
        adaptive_scan(ys[0], data.x, data.w, null, config)
    assert fitted == [3, 4]


def test_a_failed_outcome_is_not_called_at_later_candidates(monkeypatch):
    # the first outcome, at 1e-200 of the second's scale, fails at J = 3 on an underflowed D; the pass calls it
    # no more at J = 4, where the second outcome still runs
    data = generate(DesignConfig("I", 500, 0.5, HSpec("mono", c0=0.3), RngStream(4, 2)))
    ys = [1e-200 * data.y, data.y]
    outcome, calls = adaptive_module._structural_outcome, []

    def recording(factor, y, **kwargs):
        calls.append((int(np.max(np.abs(y)) > 1e-100), factor[0]))
        return outcome(factor, y, **kwargs)

    monkeypatch.setattr(adaptive_module, "_structural_outcome", recording)
    null, config = NullSpec.from_name("linear"), RunConfig(grid=(3, 4))
    grid, results, _, _ = adaptive_module._structural_scan(ys, data.x, data.w, null, config, None)
    assert calls == [(0, 3), (1, 3), (1, 4)]
    assert isinstance(results[0], NumericalError) and str(results[0]).startswith("candidate J=3: D=0.0 underflowed")
    assert grid.j_list == (3, 4) and [entry.j for entry in results[1]] == [3, 4]


def test_equispaced_constraint_rows_are_built_once_per_process(monkeypatch):
    adaptive_module._equispaced_constraints.cache_clear()
    calls = _count_calls(monkeypatch, "deriv_constraints", (adaptive_module,))
    null = NullSpec.from_name("convex")
    first = null.constraints(BasisSpec("bspline", 7, 3))
    assert null.constraints(BasisSpec("bspline", 7, 3)) is first
    assert calls["calls"] == 1
    expected = deriv_constraints(BasisSpec("bspline", 7, 3), "convex")
    assert first.kind == expected.kind
    np.testing.assert_array_equal(first.rows, expected.rows)
    with pytest.raises(ValueError, match="read-only"):
        first.rows[0, 0] = 1.0


def test_quantile_knot_constraint_rows_are_built_fresh(monkeypatch, rng):
    # a quantile spec hashes without its knot data, so equal-looking specs may hold other knots
    adaptive_module._equispaced_constraints.cache_clear()
    calls = _count_calls(monkeypatch, "deriv_constraints", (adaptive_module,))
    null = NullSpec.from_name("decreasing")
    x = rng.uniform(size=300)
    specs = [BasisSpec("bspline", 7, 3, knot_rule="quantile", knot_data=data) for data in (x, x**3)]
    assert specs[0] == specs[1]
    rows = [null.constraints(spec) for spec in specs]
    assert calls["calls"] == 2
    assert not np.array_equal(rows[0].rows, rows[1].rows)
    for m, spec in zip(rows, specs):
        np.testing.assert_array_equal(m.rows, deriv_constraints(spec, "decreasing").rows)
    assert adaptive_module._equispaced_constraints.cache_info().currsize == 0


def _concentrated_sample(n=1000, share=0.9, width=0.01, seed=5):
    """A share of w inside [0.5, 0.5 + width]: the knot-interval counts there certify too little for the top
    of the scan, and at n = 80 with 95 % inside [0.5, 0.501] the stability scan stops below its hard cap."""
    gen = np.random.default_rng(seed)
    w = np.where(gen.uniform(size=n) < share, 0.5 + width * gen.uniform(size=n), gen.uniform(size=n))
    x = w + 0.1 * gen.normal(size=n)
    return x + gen.normal(size=n), x, w


def _recorded_image_space_test(monkeypatch, y, x, w, config=None):
    """image_space_test, with each stepped (dim, exact) and each instrument design build recorded."""
    steps, built = [], []
    factory, instrument = adaptive_module._image_space_step, adaptive_module._Designs.instrument

    def recording_factory(config, designs, n, k_min):
        step = factory(config, designs, n, k_min)

        def recording_step(k):
            stepped = step(k)
            steps.append((stepped[0], stepped[2] is not None))
            return stepped

        return recording_step

    def recording_design(self, config, k_target):
        built.append(k_target)
        return instrument(self, config, k_target)

    monkeypatch.setattr(adaptive_module, "_image_space_step", recording_factory)
    monkeypatch.setattr(adaptive_module._Designs, "instrument", recording_design)
    return image_space_test(y, x, w, "linear", config=config), steps, built


def test_certified_image_space_scan_builds_only_candidates(monkeypatch):
    # at n = 5000 the knot-interval bound certifies every design-I step, and the tensor's column sums every
    # multivariate one (K = 9 ... 36): no step builds a design, forms B'B or calls eigvalsh, and each
    # candidate's visit builds its design once
    for design, h in (("I", HSpec("sin", c_a=0.5)), ("multivariate", HSpec("quad", c_a=0.5))):
        data = generate(DesignConfig(design, 5000, 0.5, h, RngStream(4, 2)))
        with monkeypatch.context() as patch:
            eigvalsh = _count_calls(patch, "eigvalsh", (np.linalg,))
            rep, steps, built = _recorded_image_space_test(patch, data.y, data.x, data.w)
        assert len(steps) == rep.grid.hard_cap - RunConfig().basis_min() + 1
        assert not any(exact for _, exact in steps)
        assert eigvalsh["calls"] == 0
        assert sorted(built) == sorted(rep.grid.j_list) == sorted(rep.grid.shat)
    assert rep.grid.j_list[-1] == 36


@pytest.mark.parametrize("basis", ["bspline2", "bspline3"])
def test_image_space_design_builds_are_candidates_plus_uncertified_steps(monkeypatch, basis):
    y, x, w = _concentrated_sample()
    rep, steps, built = _recorded_image_space_test(monkeypatch, y, x, w, RunConfig(basis=basis))
    uncertified = {dim for dim, exact in steps if exact}
    assert uncertified - set(rep.grid.j_list)  # the sample forces exact non-candidate steps
    assert len(built) == len(set(rep.grid.j_list) | uncertified)  # an uncertified candidate is built once
    assert set(rep.grid.shat) == set(rep.grid.j_list) | uncertified


def _image_space_outcome(y, x, w, model, config):
    try:
        return image_space_test(y, x, w, model, config=config).to_dict()
    except (InputError, NumericalError) as exc:
        return type(exc).__name__, str(exc)


def test_image_space_scan_matches_the_dense_step_oracle(monkeypatch):
    # grids, decisions and errors are identical to the scan whose every step builds B, for a 1-d and a
    # 2-d w; D, v, W and p too, since a visit builds the same design; s_hat comes from another
    # factorization of B'B
    samples = [
        generate(DesignConfig(design, n, 0.5, HSpec("sin", c_a=1.0), RngStream(seed, 3)))
        for design, n, seed in [("I", 60, 2), ("I", 200, 3), ("I", 1000, 4), ("II", 200, 5), ("II", 1000, 6),
                                ("multivariate", 200, 7), ("multivariate", 1000, 8), ("multivariate", 5000, 9)]
    ]
    samples = [(d.y, d.x, d.w) for d in samples] + [_concentrated_sample(), _concentrated_sample(80, 0.95, 0.001)]
    compared = 0
    for y, x, w in samples:
        for basis in ("bspline2", "bspline3", "cosine", "power"):
            for knot_rule in ("equispaced", "quantile"):
                for model in ("linear", "quadratic"):
                    config = RunConfig(basis=basis, knot_rule=knot_rule)
                    fast = _image_space_outcome(y, x, w, model, config)
                    with monkeypatch.context() as patch:
                        patch.setattr(adaptive_module, "_image_space_step", image_space_step_dense)
                        dense = _image_space_outcome(y, x, w, model, config)
                    if isinstance(dense, tuple):
                        assert fast == dense
                        continue
                    fast_rows, dense_rows = fast.pop("per_J"), dense.pop("per_J")
                    assert fast == dense
                    assert len(fast_rows) == len(dense_rows)
                    for row, expected in zip(fast_rows, dense_rows):
                        assert row.pop("s_hat") == pytest.approx(expected.pop("s_hat"), rel=1e-10)
                        assert row == expected
                    compared += 1
    assert compared >= 130


def test_image_space_scan_matches_the_knot_count_step_oracle(monkeypatch):
    # the column sums of a tensor B (the entries of B_1'B_2) certify steps the knot-interval counts leave
    # uncertified, and a certified step cannot stop the scan: grids, decisions and errors are the count-only
    # step's, and D, v, W and p too, since a visit builds the same design; s_hat comes from another
    # factorization of B'B. The 2-d samples take fewer eigvalsh calls in all
    eigvalsh = _count_calls(monkeypatch, "eigvalsh", (np.linalg,))
    samples = [generate(DesignConfig("multivariate", n, xi, HSpec("quad", c_a=1.0), RngStream(seed, 5)))
               for n, xi, seed in [(200, 0.5, 1), (1000, 0.3, 2), (1000, 0.7, 3), (5000, 0.5, 4), (5000, 0.7, 5)]]
    samples = [(d.y, d.x, d.w) for d in samples]
    y, x, w = _concentrated_sample()
    samples += [(y, x, np.column_stack([w, w[::-1]])), _concentrated_sample()]
    calls = {"fast": 0, "counts": 0}
    compared = 0
    for y, x, w in samples:
        for basis in ("bspline2", "bspline3"):
            for knot_rule in ("equispaced", "quantile"):
                for model in ("linear", "quadratic"):
                    config = RunConfig(basis=basis, knot_rule=knot_rule)
                    eigvalsh["calls"] = 0
                    fast = _image_space_outcome(y, x, w, model, config)
                    calls["fast"] += eigvalsh["calls"]
                    eigvalsh["calls"] = 0
                    with monkeypatch.context() as patch:
                        patch.setattr(adaptive_module, "_image_space_step", image_space_step_knot_counts)
                        counts = _image_space_outcome(y, x, w, model, config)
                    calls["counts"] += eigvalsh["calls"]
                    if isinstance(counts, tuple):
                        assert fast == counts
                        continue
                    fast_rows, count_rows = fast.pop("per_J"), counts.pop("per_J")
                    assert fast == counts
                    assert len(fast_rows) == len(count_rows)
                    for row, expected in zip(fast_rows, count_rows):
                        assert row.pop("s_hat") == pytest.approx(expected.pop("s_hat"), rel=1e-10)
                        assert row == expected
                    compared += 1
    assert compared >= 50
    assert calls["fast"] < calls["counts"]


@pytest.mark.parametrize("basis", ["bspline2", "bspline3", "cosine", "power"])
def test_instrument_dims_are_those_of_the_float_root(basis):
    config = RunConfig(basis=basis)
    for d_w in range(1, 5):
        got = [(config.instrument_dim(k, d_w), config.instrument_per_dim(k, d_w)) for k in range(5001)]
        assert got == [instrument_dims_float_root(config, k, d_w) for k in range(5001)]


def _step_or_error(step, k):
    try:
        return step(k)
    except InputError as exc:
        return str(exc)


@pytest.mark.parametrize("n", [60, 500, 5000])
def test_image_space_table_steps_match_the_knot_count_oracle(n):
    # the per-process table's realized dims and noise levels are those the knot-count step derives at each step
    # from its specs; a step certifies where the oracle counts of its specs' own knot vectors do, and raises
    # the error of the first tied quantile knot vector; a 1-d step is the oracle's, and a 2-d step certifies
    # every step the oracle's does and is the oracle's where neither certifies
    gen = np.random.default_rng(n)
    tied = np.where(gen.uniform(size=n) < 0.7, 0.5, gen.uniform(size=n))  # its quantile knots tie from J = 5 on
    samples = [gen.uniform(size=n), tied, gen.beta(2.0, 5.0, size=(n, 2)), np.column_stack([gen.uniform(size=n), tied])]
    compared, errors = 0, 0
    for w in (w.reshape(n, -1) for w in samples):  # the scans' n x d_w view
        columns = list(w.T)
        for basis in ("bspline2", "bspline3"):
            for knot_rule in ("equispaced", "quantile"):
                config = RunConfig(basis=basis, knot_rule=knot_rule)
                k_min = config.basis_min()
                rows, _ = adaptive_module._image_space_table(basis, config.support, n, len(columns), k_min)
                fast = adaptive_module._image_space_step(config, adaptive_module._Designs(w), n, k_min)
                oracle = image_space_step_knot_counts(config, adaptive_module._Designs(w), n, k_min)
                for k in range(config.basis_min(), len(rows)):
                    dim, noise, per_dim = rows[k]
                    specs = config.instrument_specs(k, w)
                    assert (dim, [spec.dim for spec in specs]) == (config.instrument_dim(k, len(columns)),
                                                                   [per_dim] * len(columns))
                    assert noise == adaptive_module._noise_level(specs[0], dim, n)
                    counts = [_step_or_error(lambda x: _max_support_count(spec, x), np.sort(np.clip(c, 0, 1)))
                              for spec, c in zip(specs, columns)]
                    tied = [count for count in counts if isinstance(count, str)]
                    got, want = _step_or_error(fast, k), _step_or_error(oracle, k)
                    if tied:
                        assert got == tied[0]
                    elif noise < math.sqrt(n / min(counts)) * (1.0 - 1e-9):
                        assert got == (dim, noise, None, None)
                    errors += isinstance(want, str)
                    if isinstance(want, str) or w.shape[1] == 1 or got[2] is not None:
                        assert got[:3] == want[:3]
                        assert (got[3] is None) == (want[3] is None) and np.array_equal(got[3], want[3])
                    else:  # the column sums of the tensor certified what the counts left
                        assert got[:3] == (*want[:2], None)
                    compared += 1
    assert compared >= 4 * 4 * (len(rows) - 4)
    assert (errors > 0) == (n > 60)  # at n = 60 the scan stops at K = 4, below any tie


def test_an_image_space_fallback_above_the_hard_cap_reads_the_table(monkeypatch):
    # at n = 40 the hard cap is K = 4, and a 7-column null puts K_min = 7 above it, so the scan falls back to
    # the singleton {7}, whose step the per-process table spans. Grids, decisions, warnings and statistics
    # are those of the step that builds every design, s_hat within rel 1e-10, for a 1-d and a 2-d w (K = 7
    # rounds up to 9 or 16)
    gen = np.random.default_rng(40)
    compared = []
    for w in (gen.uniform(size=40), gen.uniform(size=(40, 2))):
        x = np.clip((w if w.ndim == 1 else w.mean(axis=1)) + 0.2 * gen.normal(size=40), 0.0, 1.0)
        y = np.sin(3.0 * x) + gen.normal(size=40)
        z = np.column_stack([x**p for p in range(7)])
        for basis in ("bspline2", "bspline3", "cosine", "power"):
            for knot_rule in ("equispaced", "quantile"):
                config = RunConfig(alpha=1e-6, basis=basis, knot_rule=knot_rule)
                rows, _ = adaptive_module._image_space_table(basis, config.support, 40, w.ndim, 7)
                assert len(rows) == 8
                fast = _image_space_outcome(y, x, w, z, config)
                with monkeypatch.context() as patch:
                    patch.setattr(adaptive_module, "_image_space_step", image_space_step_dense)
                    dense = _image_space_outcome(y, x, w, z, config)
                fast_rows, dense_rows = fast.pop("per_J"), dense.pop("per_J")
                assert fast == dense
                assert fast["grid"]["fallback"] and fast["grid"]["hard_cap"] == 4
                assert fast["warnings"] == ["J_max_hat=4 leaves no admissible candidate; falling back to the "
                                            "singleton {7}"]
                (row,), (expected,) = fast_rows, dense_rows
                assert row.pop("s_hat") == pytest.approx(expected.pop("s_hat"), rel=1e-10)
                assert row == expected
                compared.append(row["K"])
    assert sorted(set(compared)) == [7, 9, 16]


def test_image_space_statistics_match_the_basis_oracle(monkeypatch):
    # D and v from the K x K gram C = U_B' diag(r^2) U_B against compute_D / compute_vhat_product on the formed
    # n x K basis U_B: identical grids, decisions and errors, and statistics within rel 1e-10
    compared = 0
    for design in ("I", "multivariate"):
        for n, seed in ((200, 7), (1000, 8), (5000, 9)):
            data = generate(DesignConfig(design, n, 0.5, HSpec("sin" if design == "I" else "quad", c_a=1.0),
                                         RngStream(seed, 4)))
            for basis in ("bspline2", "bspline3", "cosine", "power"):
                for knot_rule in ("equispaced", "quantile"):
                    for model in ("linear", "quadratic"):
                        config = RunConfig(basis=basis, knot_rule=knot_rule)
                        fast = _image_space_outcome(data.y, data.x, data.w, model, config)
                        with monkeypatch.context() as patch:
                            patch.setattr(adaptive_module, "_image_space_statistics", image_space_statistics_basis)
                            basis_path = _image_space_outcome(data.y, data.x, data.w, model, config)
                        if isinstance(basis_path, tuple):
                            assert fast == basis_path
                            continue
                        pairs = [(fast, basis_path), *zip(fast.pop("per_J"), basis_path.pop("per_J"), strict=True)]
                        for got, expected in pairs:
                            for key in ("D", "v", "W", "W_reported", "p_value"):
                                if key in expected:
                                    assert got.pop(key) == pytest.approx(expected.pop(key), rel=1e-10, abs=0)
                            assert got == expected
                        compared += 1
    assert compared >= 80


@pytest.mark.parametrize("model", ["linear", "quadratic"])
def test_decide_takes_the_statistic_its_entries_name(model):
    # decide has no statistic of its own: on image_space_scan's entries it centers W_K at K and reports the
    # image-space test, as image_space_test does; entries naming two statistics, or items that are no scan's
    # entries, are input errors
    y, x, w = _sample200()
    null, config = NullSpec.from_name(model), RunConfig(grid="knots")
    grid, entries, warn, n = adaptive_module.image_space_scan(y, x, w, null, config)
    report = decide(grid, entries, n, null, config, warnings=warn)
    assert report.statistic == "image-space" and report.config["grid"] == "dyadic"
    assert [rec.eta for rec in report.per_j] == [eta_hat(0.05, grid.size, rec.gamma, rec.k) for rec in report.per_j]
    assert report.to_dict() == image_space_test(y, x, w, model, config).to_dict()
    s_grid, s_entries, _, _ = adaptive_scan(y, x, w, null, config)
    assert decide(s_grid, s_entries, n, null, config).statistic == "structural"
    mixed = [dataclasses.replace(entries[0], statistic="structural"), *entries[1:]]
    with pytest.raises(InputError) as info:
        decide(grid, mixed, n, null, config)
    assert str(info.value) == "entries of one decision must name one statistic, got ['image-space', 'structural']"
    with pytest.raises(InputError, match=r"^entry must be a _ScanEntry, got float$"):
        decide(grid, [1.0] * grid.size, n, null, config)


def test_image_space_detects_quadratic_alternative():
    data = generate(DesignConfig("I", 500, 0.7, HSpec("sin", c_a=2.0), RngStream(24, 5)))
    rep = image_space_test(data.y, data.x, data.w, "linear", config=RunConfig(k_factor=4))
    assert rep.statistic == "image-space"
    assert rep.reject


def test_image_space_scan_runs_its_dyadic_rule_on_an_explicit_grid():
    # the image-space statistic scans K by its own dyadic rule: an explicit grid, even one below the basis minimum,
    # is neither checked nor read, and the report's config names the rule it ran
    data = generate(DesignConfig("I", 500, 0.5, HSpec("sin", c_a=0.5), RngStream(4, 2)))
    dyadic = image_space_test(data.y, data.x, data.w, "linear", RunConfig())
    for grid in ((1, 2), "knots"):
        report = image_space_test(data.y, data.x, data.w, "linear", RunConfig(grid=grid, k_factor=2))
        assert report.grid == dyadic.grid and report.grid.mode == "dyadic"
        assert report.per_j == dyadic.per_j
        assert report.config == {**dyadic.config, "k_factor": 2} and report.config["grid"] == "dyadic"


@pytest.mark.parametrize("run, at", [
    (lambda d: image_space_test(1e-200 * d.y, d.x, d.w, "linear"), "K=3"),
    (lambda d: adaptive_test(1e-200 * d.y, d.x, d.w, NullSpec.from_name("linear")), "J=3"),
], ids=["image-space", "structural"])
def test_an_underflow_names_the_candidate_by_its_scan_label(run, at):
    data = generate(DesignConfig("I", 500, 0.5, HSpec("sin", c_a=0.5), RngStream(4, 2)))
    with pytest.raises(NumericalError) as info:
        run(data)
    assert str(info.value).startswith(f"candidate {at}: D=0.0 underflowed from residuals that are not numerically zero")


def test_an_input_with_two_faults_raises_the_first_in_the_contract_order():
    # the sample, then x's rank, then the null/basis rule, then the explicit grid; a spec resolves its null first
    data = generate(DesignConfig("I", 300, 0.5, HSpec("mono", c0=0.1), RngStream(21, 3)))
    decreasing, cosine_below = NullSpec.from_name("decreasing"), RunConfig(basis="cosine", grid=(1, 2))
    x2 = np.column_stack([data.x, data.x])
    probes = [
        (lambda: adaptive_test(np.full_like(data.y, np.nan), x2, data.w, decreasing, cosine_below),
         "data contains non-finite values"),
        (lambda: adaptive_test(data.y, x2, data.w, decreasing, cosine_below),
         "the structural statistic needs one regressor as a 1-d x, got x of shape (300, 2)"),
        (lambda: adaptive_test(data.y, data.x, data.w, decreasing, cosine_below),
         "the decreasing null's derivative constraints require a B-spline basis, got 'cosine'"),
        (lambda: ExperimentSpec(null="wiggly", basis="spline9", replications=1), "unknown null 'wiggly'"),
        (lambda: ExperimentSpec(basis="cosine", grid_mode=[1, 2], replications=1),
         "the decreasing null's derivative constraints require a B-spline basis, got 'cosine'"),
    ]
    for run, message in probes:
        with pytest.raises(InputError) as info:
            run()
        assert str(info.value).startswith(message)


def test_image_space_requires_parametric_null():
    data = generate(DesignConfig("I", 200, 0.5, HSpec("sin", c_a=0.0), RngStream(25, 0)))
    with pytest.raises(InputError):
        image_space_test(data.y, data.x, data.w, "monotone", config=RunConfig())


@pytest.mark.parametrize("basis", ["cosine", "power", "bspline2", "bspline3"])
@pytest.mark.parametrize("model, n_params", [("linear", 2), ("quadratic", 3)])
def test_image_space_scan_starts_at_the_null_parameter_count(basis, model, n_params):
    data = generate(DesignConfig("I", 500, 0.5, HSpec("sin", c_a=0.5), RngStream(4, 2)))
    cfg = RunConfig(basis=basis)
    rep = image_space_test(data.y, data.x, data.w, model, config=cfg)
    assert rep.grid.j_list[0] == max(cfg.basis_min(), n_params)
    assert all(rec.k >= n_params for rec in rep.per_j)


def _discrete_instrument_sample(levels, n=2000):
    # w with `levels` distinct values leaves every B_K of rank `levels` at most
    gen = np.random.default_rng(0)
    w = gen.integers(0, levels, size=n) / (levels - 1)
    x = w + 0.3 * gen.normal(size=n)
    return 1.0 + 2.0 * x + gen.normal(size=n), x, w


@pytest.mark.parametrize("levels, j_list, j_max_hat, k_stop",
                         [(3, (3,), 3, 4), (5, (3, 4), 7, 8), (12, (3, 4, 8), 15, 16)],
                         ids=["levels3", "levels5", "levels12"])
def test_image_space_discrete_instrument_stops_the_stability_scan(levels, j_list, j_max_hat, k_stop):
    # the first candidate whose B_K is singular lies past the scan's first index: its visit stops the scan at
    # J_max_hat = K - 1, as a singular step would, and the test decides on the candidates before it
    y, x, w = _discrete_instrument_sample(levels)
    report = image_space_test(y, x, w, "linear")
    assert report.grid.j_list == j_list and report.grid.j_max_hat == j_max_hat
    assert report.warnings == (f"stability scan stopped at J={k_stop}: candidate K={k_stop}: instrument gram B'B "
                               f"is numerically singular (dim {k_stop})",)


def _five_value_regressor_sample(n=20000):
    # x with 5 distinct values leaves Psi_J'Omega Psi_J singular from J = 6 on
    gen = np.random.default_rng(5)
    x = gen.integers(0, 5, size=n) / 4.0
    w = np.clip(x + 0.2 * gen.normal(size=n), 0.0, 1.0)
    return 1.0 + x + gen.normal(size=n), x, w


def _three_column_instrument_sample(n=24):
    # a 3-column w realizes K = 3^3 = 27 >= n = 24 at the basis minimum, whatever its distinct values
    gen = np.random.default_rng(1)
    w = gen.uniform(size=(n, 3))
    x = np.clip(w.mean(axis=1) + 0.1 * gen.normal(size=n), 0.0, 1.0)
    return x + gen.normal(size=n), x, w


_LINEAR = NullSpec.from_name("linear")
_TIED = ("quantile knots are not strictly increasing inside the support; the data has too many ties for this many "
         "knots")


@pytest.mark.parametrize("sample, run, expected", [
    pytest.param(lambda: _discrete_instrument_sample(2),
                 lambda y, x, w: adaptive_test(y, x, w, _LINEAR, RunConfig(grid=(3,))),
                 "instrument sample too degenerate for the bspline2 basis: the gram B'B of its minimum candidate J=3 "
                 "(K=12 instrument columns) is singular at n=2000 with 2 distinct w value(s)",
                 id="two-level-w-explicit"),
    pytest.param(lambda: _discrete_instrument_sample(2), lambda y, x, w: image_space_test(y, x, w, "linear"),
                 "instrument sample too degenerate for the bspline2 basis: the gram B'B of its minimum candidate K=3 "
                 "is singular at n=2000 with 2 distinct w value(s)", id="two-level-w-image-space"),
    pytest.param(_five_value_regressor_sample,
                 lambda y, x, w: adaptive_test(y, x, w, _LINEAR, RunConfig(grid="knots", k_factor=2)),
                 ((3, 4, 5), 5, "stability scan stopped at J=6: weighted regressor gram Psi'Omega Psi is numerically "
                                "singular (dim 6)"), id="five-value-x-knots"),
    pytest.param(_five_value_regressor_sample,
                 lambda y, x, w: adaptive_test(y, x, w, _LINEAR, RunConfig(grid=(3, 4, 5, 6), k_factor=2)),
                 "regressor sample too degenerate for the bspline2 basis: the weighted gram Psi'Omega Psi of its "
                 "candidate J=6 is singular at n=20000 with 5 distinct x value(s)", id="five-value-x-explicit"),
    # the two end levels of w lie in the first and last knot spans, so the quantile knots of its 10 inner
    # levels tie from K = 13 on
    pytest.param(lambda: _discrete_instrument_sample(12),
                 lambda y, x, w: image_space_test(y, x, w, "linear", RunConfig(knot_rule="quantile")),
                 ((3, 4, 8), 12, f"stability scan stopped at J=13: {_TIED}"), id="twelve-level-w-quantile"),
    pytest.param(lambda: _discrete_instrument_sample(5),
                 lambda y, x, w: adaptive_test(y, x, w, _LINEAR, RunConfig(knot_rule="quantile")),
                 _TIED, id="five-level-w-quantile-first-candidate"),
    pytest.param(_three_column_instrument_sample, lambda y, x, w: image_space_test(y, x, w, "linear"),
                 "sample too small for the bspline2 basis: its minimum candidate K=27 needs K=27 instrument columns, "
                 "whose gram B'B is singular at n=24", id="k-at-least-n-image-space"),
    # the image-space scan's lowest K is the null's parameter count, above a cosine or power basis minimum of 1
    pytest.param(lambda: _discrete_instrument_sample(2), lambda y, x, w: image_space_test(
                     y, x, np.full_like(w, 0.5), "linear", RunConfig(basis="power")),
                 "instrument sample too degenerate for the power basis: the gram B'B of its minimum candidate K=2 "
                 "is singular at n=2000 with 1 distinct w value(s)", id="constant-w-image-space-power"),
    pytest.param(lambda: _discrete_instrument_sample(2), lambda y, x, w: image_space_test(
                     y, x, np.full_like(w, 0.5), "quadratic", RunConfig(basis="cosine")),
                 "instrument sample too degenerate for the cosine basis: the gram B'B of its minimum candidate K=3 "
                 "is singular at n=2000 with 1 distinct w value(s)", id="constant-w-image-space-cosine"),
])
def test_a_data_failure_ends_by_the_one_rule(sample, run, expected):
    # a candidate the sample cannot carry stops the stability scan past the scan start, in either scan; at an
    # index J_max_hat keeps it ends the test with an input error that names the candidate, K and n
    y, x, w = sample()
    if isinstance(expected, str):
        with pytest.raises(InputError) as info:
            run(y, x, w)
        assert str(info.value) == expected
        return
    report = run(y, x, w)
    j_list, j_max_hat, stop = expected
    assert (report.grid.j_list, report.grid.j_max_hat, report.warnings[-1]) == (j_list, j_max_hat, stop)


def test_a_custom_rows_error_is_a_user_error_at_any_candidate():
    # a custom_rows callable that raises is not a data failure: past the scan start (this grid is 3...7) it
    # still ends the test
    data = generate(DesignConfig("I", 2000, 0.9, HSpec("sin", c_a=0.5), RngStream(4, 2)))

    def rows(spec):
        if spec.dim == 5:
            raise InputError("no rows for this basis")
        return ConstraintMatrix(np.eye(1, spec.dim), "custom")

    null = NullSpec(kind="shape", custom_rows=rows)
    with pytest.raises(InputError) as info:
        adaptive_test(data.y, data.x, data.w, null, config=RunConfig(grid="knots"))
    assert str(info.value) == "candidate J=5: no rows for this basis"


@pytest.mark.parametrize("clip", [False, True], ids=["beyond-the-support", "clipped"])
def test_quantile_knots_come_from_the_data_inside_the_support(clip):
    # 2.7 % of this w lies below the support; clipped, they sit on its end. Neither places a knot there
    gen = np.random.default_rng(0)
    w = 1.1 * gen.beta(2.0, 5.0, size=50000) - 0.05
    w = np.clip(w, 0.0, 1.0) if clip else w
    x = np.clip(w + 0.1 * gen.normal(size=w.size), 0.0, 1.0)
    y = 1.0 + x + gen.normal(size=w.size)
    config = RunConfig(knot_rule="quantile")
    reports = [image_space_test(y, x, w, "linear", config), adaptive_test(y, x, w, _LINEAR, config)]
    for report in reports:
        assert len(report.per_j) >= 2 and not any("stability scan stopped" in line for line in report.warnings)


@pytest.mark.parametrize("levels", [2, 3, 5])
def test_structural_scan_on_a_discrete_instrument_needs_k_distinct_values(levels):
    # K = 4 J = 12 instrument columns at the minimum candidate J = 3 exceed the distinct values of w
    y, x, w = _discrete_instrument_sample(levels)
    with pytest.raises(InputError) as info:
        adaptive_test(y, x, w, NullSpec.from_name("linear"))
    assert str(info.value) == ("instrument sample too degenerate for the bspline2 basis: the gram B'B of its minimum "
                               "candidate J=3 (K=12 instrument columns) is singular at n=2000 with "
                               f"{levels} distinct w value(s)")


def test_structural_scan_on_a_two_column_discrete_instrument_names_each_columns_values():
    # the K = 16 tensor columns at J = 3 exceed the 2 x 3 distinct points of a 2-d w
    gen = np.random.default_rng(0)
    w = np.column_stack([gen.integers(0, 2, size=2000), gen.integers(0, 3, size=2000) / 2])
    x = np.clip(w.mean(axis=1) + 0.1 * gen.normal(size=2000), 0.0, 1.0)
    with pytest.raises(InputError) as info:
        adaptive_test(1.0 + 2.0 * x + gen.normal(size=2000), x, w, NullSpec.from_name("linear"))
    assert str(info.value) == ("instrument sample too degenerate for the bspline2 basis: the gram B'B of its minimum "
                               "candidate J=3 (K=16 instrument columns) is singular at n=2000 with 2, 3 distinct w "
                               "value(s) per column")


def test_structural_scan_whose_minimum_candidate_has_k_at_least_n_needs_more_data():
    y, x, w = _three_column_instrument_sample()
    with pytest.raises(InputError) as info:
        adaptive_test(y, x, w, NullSpec.from_name("linear"))
    assert str(info.value) == ("sample too small for the bspline2 basis: its minimum candidate J=3 needs K=27 "
                               "instrument columns, whose gram B'B is singular at n=24")


def _null_of(model):
    return NullSpec.from_name(model) if isinstance(model, str) else NullSpec(kind="parametric", custom_design=model)


_SCANS = {  # each entry point with the arguments it takes of y, x, w, mu, a candidate and a parametric model
    "adaptive_test": (lambda a: adaptive_test(a["y"], a["x"], a["w"], _null_of(a["model"]), mu=a["mu"]),
                      {"y", "x", "w", "mu", "model"}),
    "image_space_test": (lambda a: image_space_test(a["y"], a["x"], a["w"], a["model"]), {"y", "x", "w", "model"}),
    "cs_contains": (lambda a: cs_contains(a["candidate"], a["y"], a["x"], a["w"], null=_null_of(a["model"]),
                                          mu=a["mu"]), {"y", "x", "w", "mu", "candidate", "model"}),
}
_COLUMNS = "{} must be 1-d, or 2-d with at least one column, got shape {}"
_NAN = np.arange(200) == 7
_PROBES = [  # (probe, argument, its malformed value made from the sample (y, x, w), message)
    ("short w", "w", lambda y, x, w: w[:-1], "y, x, w must share the number of observations"),
    ("nan y", "y", lambda y, x, w: np.where(_NAN, np.nan, y), "data contains non-finite values"),
    ("nan x", "x", lambda y, x, w: np.where(_NAN, np.nan, x), "data contains non-finite values"),
    ("nan w", "w", lambda y, x, w: np.where(_NAN, np.nan, w), "data contains non-finite values"),
    ("w without columns", "w", lambda y, x, w: np.empty((200, 0)), _COLUMNS.format("w", "(200, 0)")),
    ("0-d y", "y", lambda y, x, w: y[0], "y must be 1-d, got shape ()"),
    ("0-d x", "x", lambda y, x, w: x[0], _COLUMNS.format("x", "()")),
    ("0-d w", "w", lambda y, x, w: w[0], _COLUMNS.format("w", "()")),
    ("3-d w", "w", lambda y, x, w: w[:, None, None], _COLUMNS.format("w", "(200, 1, 1)")),
    ("text y", "y", lambda y, x, w: np.full(200, "abc"), "y must be real numbers"),
    ("text x", "x", lambda y, x, w: np.full(200, "abc"), "x must be real numbers"),
    ("text w", "w", lambda y, x, w: np.full(200, "abc"), "w must be real numbers"),
    ("text mu", "mu", lambda y, x, w: np.full(200, "abc"), "weights mu must be real numbers"),
    ("complex y", "y", lambda y, x, w: y + 0.5j, "y must be real numbers"),
    ("complex mu", "mu", lambda y, x, w: np.ones(200) + 0.5j, "weights mu must be real numbers"),
    ("complex candidate", "candidate", lambda y, x, w: -0.2 * x + 0.5j,
     "candidate fitted values must be real numbers"),
    ("custom design without columns", "model", lambda y, x, w: np.empty((200, 0)),
     _COLUMNS.format("custom design", "(200, 0)")),
    ("3-d custom design", "model", lambda y, x, w: np.ones((200, 1, 1)),
     _COLUMNS.format("custom design", "(200, 1, 1)")),
    ("complex custom design", "model", lambda y, x, w: np.column_stack([np.ones(200), x]) + 0.5j,
     "custom design must be real numbers"),
]


@pytest.mark.parametrize("scan, argument, value, message", [
    pytest.param(scan, argument, value, message, id=f"{probe}-{message}-{scan}")
    for probe, argument, value, message in _PROBES for scan, (_, takes) in _SCANS.items() if argument in takes
])
def test_public_entry_points_check_their_data(scan, argument, value, message):
    # one sample contract: each entry point that takes the argument ends each malformed value in an InputError
    # naming it, before any candidate; a complex value cast to float would fail here on its ComplexWarning
    y, x, w = _sample200()
    args = {"y": y, "x": x, "w": w, "mu": None, "candidate": -0.2 * x, "model": "linear"}
    args[argument] = value(y, x, w)
    with pytest.raises(InputError) as info:
        _SCANS[scan][0](args)
    assert info.value.args == (message,)


_ARRAYS = [  # (export, argument, the name its messages give it, its fewest and most dimensions; None: elementwise)
    ("adaptive.NullSpec", "custom_design", "custom design", 1, 2),
    ("adaptive.adaptive_scan", "y", "y", 1, 1),
    ("adaptive.adaptive_scan", "x", "x", 1, 2),
    ("adaptive.adaptive_scan", "w", "w", 1, 2),
    ("adaptive.adaptive_scan", "mu", "weights mu", 1, 1),
    ("adaptive.image_space_scan", "y", "y", 1, 1),
    ("adaptive.image_space_scan", "x", "x", 1, 2),
    ("adaptive.image_space_scan", "w", "w", 1, 2),
    ("adaptive.compute_D", "scaled_map", "scaled map", 2, 2),
    ("adaptive.compute_D", "r", "residuals", 1, 1),
    ("basis.BasisSpec", "knot_data", "knot_data", 1, 1),
    ("basis.ConstraintMatrix", "rows", "constraint rows", 1, 2),
    ("basis.eval_design", "x", "x", 0, 1),
    ("dgp.HSpec.__call__", "x", "x", 0, None),
    ("dgp.h_mono", "x", "x", 0, None),
    ("dgp.h_sin", "x", "x", 0, None),
    ("dgp.h_design2", "x", "x", 0, None),
    ("dgp.h_quad", "x", "x", 0, None),
    ("linalg.pinv", "a", "matrix a", 2, 2),
    ("linalg.orthonormal_range", "b", "matrix b", 2, 2),
    ("linalg.frobenius_norm", "a", "matrix a", 2, 2),
    ("npiv.NpivFit.coefficients", "y", "y", 1, 1),
    ("npiv.fit_from_design", "psi", "regressor design Psi", 2, 2),
    ("npiv.fit_from_design", "b", "instrument design B", 2, 2),
    ("npiv.fit_from_design", "mu", "weights mu", 1, 1),
    ("npiv.cone_project", "v", "v", 1, 1),
    ("npiv.cone_project", "g", "metric g", 2, 2),
    ("npiv.cone_project", "m", "constraint rows", 1, 2),
    ("npiv.parametric_design", "x", "x", 1, 2),
    ("npiv.parametric_design", "model", "custom design", 1, 2),
    ("npiv.RestrictedFit.coefficients", "y", "y", 1, 1),
    ("npiv.fit_restricted_parametric", "x", "x", 1, 2),
    ("npiv.fit_restricted_parametric", "model", "custom design", 1, 2),
    ("npiv.fit_restricted_parametric", "q", "instrument basis q", 2, 2),
    ("npiv.fit_restricted_parametric", "r", "factor r", 2, 2),
    ("randdist.CovarianceSpec", "matrix", "covariance", 2, 2),
    ("randdist.std_normal_cdf", "x", "x", 0, None),
]
# exports none of whose arguments is an array
_ARRAY_FREE = ("adaptive.RunConfig", "adaptive.eta_hat", "basis.deriv_constraints", "basis.zeta", "basis.min_dim",
               "cli.main", "cli.load_csv_dataset", "cli.resolve_config", "cli.render_report", "dgp.DesignConfig",
               "dgp.draw", "dgp.generate", "dgp.null_boundary", "errors.InputError", "errors.NumericalError",
               "linalg.default_rcond", "linalg.check_gram", "randdist.RngStream", "randdist.chisq_quantile",
               "randdist.chisq_sf", "randdist.mvn_sample", "sim.ExperimentSpec", "sim.run_experiment",
               "sim.reproduce")
# records the package fills from checked arrays, and calls that take another export's result (a scan's grid and
# entries, a projection's active set) and no sample of their own
_RESULTS = ("adaptive.CandidateGrid", "adaptive.CandidateRecord", "adaptive.TestReport", "adaptive.decide",
            "adaptive.gamma_hat", "dgp.Dataset", "npiv.NpivFit", "npiv.RestrictedFit", "sim.CellResult",
            "sim.McSummary")


def _export(name: str):
    module, *attributes = name.split(".")
    return functools.reduce(getattr, attributes, importlib.import_module(f"npivtest.{module}"))


def _valid_arguments(export: str) -> dict:
    """Keyword arguments with which export completes, on the 200-point sample and one of its candidate factors."""
    y, x, w = _sample200()
    psi, b = eval_design(bspline(3), x), eval_design(bspline(6), w)
    fit = fit_from_design(psi, b)
    q, r, _ = orthonormal_range(b)
    sample = {"y": y, "x": x, "w": w}
    return {
        "adaptive.NullSpec": {"kind": "parametric", "custom_design": np.column_stack([np.ones(200), x])},
        "adaptive.adaptive_scan": {**sample, "null": NullSpec.from_name("linear"), "config": RunConfig(),
                                   "mu": np.ones(200)},
        "adaptive.image_space_scan": {**sample, "null": NullSpec.from_name("linear"), "config": RunConfig()},
        "adaptive.compute_D": {"scaled_map": fit.scaled_map, "r": y},
        "basis.BasisSpec": {"family": "bspline", "dim": 4, "knot_rule": "quantile", "knot_data": x},
        "basis.ConstraintMatrix": {"rows": np.eye(2, 4), "kind": "custom"},
        "basis.eval_design": {"spec": bspline(4), "x": x},
        "dgp.HSpec.__call__": {"self": HSpec("mono"), "x": x},
        "dgp.h_mono": {"c0": 0.5, "x": x},
        "dgp.h_sin": {"c_a": 0.5, "c_b": 0.1, "x": x},
        "dgp.h_design2": {"c_a": 0.5, "x": x},
        "dgp.h_quad": {"c_a": 0.5, "x": x},
        "linalg.pinv": {"a": psi},
        "linalg.orthonormal_range": {"b": b},
        "linalg.frobenius_norm": {"a": psi},
        "npiv.NpivFit.coefficients": {"self": fit, "y": y},
        "npiv.fit_from_design": {"psi": psi, "b": b, "mu": np.ones(200)},
        "npiv.cone_project": {"v": fit.coefficients(y), "g": fit.gram_weighted, "m": np.eye(2, 3)},
        "npiv.parametric_design": {"x": x, "model": "linear"},
        "npiv.fit_restricted_parametric": {"x": x, "model": "linear", "q": q, "r": r},
        "npiv.RestrictedFit.coefficients": {"self": fit_restricted_parametric(x, "linear", q, r), "y": y},
        "randdist.CovarianceSpec": {"matrix": np.eye(2)},
        "randdist.std_normal_cdf": {"x": x},
        "adaptive.RunConfig": {},
        "adaptive.eta_hat": {"alpha": 0.05, "grid_size": 3, "gamma": 2, "center": 4},
        "basis.zeta": {"spec": bspline(4), "dim": 4},
        "dgp.HSpec": {"family": "mono", "c0": 0.5},
        "dgp.DesignConfig": {"design": "I", "n": 100, "xi": 0.5, "h_spec": HSpec("mono"), "rng": RngStream(0)},
        "dgp.null_boundary": {"h_family": "sin", "c_b": 0.5},
        "randdist.RngStream": {"master_seed": 0, "stream_id": 1},
        "randdist.chisq_quantile": {"a": 0.05, "k": 3},
        "randdist.chisq_sf": {"x": 2.0, "k": 3},
        "randdist.mvn_sample": {"cov": CovarianceSpec(np.eye(2)), "rng": RngStream(0), "n": 5},
        "sim.ExperimentSpec": {"replications": 1, "n_values": (100,)},
        "sim.run_experiment": {"spec": ExperimentSpec(replications=1, n_values=(100,)), "jobs": 1},
        "sim.reproduce": {"table_id": "T2", "replications": 1, "seed": 0, "jobs": 1, "n_values": (500,),
                          "xi_values": (0.5,), "k_factors": (2,)},
    }[export]


def _malformed(fewest: int, most: int | None):
    """(probe, value): text and complex values, a 0-d value where an argument needs a dimension, and a value
    with one dimension too many where an argument has a most."""
    shape = (200, 2)[: max(fewest, 1)]
    probes = [("text", np.full(shape, "abc")), ("complex", np.full(shape, 0.5 + 0.5j))]
    if fewest >= 1:
        probes.append(("0-d", np.asarray(0.5)))
    if most is not None:
        probes.append(("over-dimensioned", np.ones((200, 2, 1, 1)[: most + 1])))
    return probes


@pytest.mark.parametrize("export", sorted({export for export, *_ in _ARRAYS}))
def test_each_probed_export_completes_on_its_valid_arguments(export):
    _export(export)(**_valid_arguments(export))


@pytest.mark.parametrize("export, argument, name, value", [
    pytest.param(export, argument, name, value, id=f"{export}-{argument}-{probe}")
    for export, argument, name, fewest, most in _ARRAYS for probe, value in _malformed(fewest, most)
])
def test_every_array_argument_of_an_export_follows_the_one_rule(export, argument, name, value):
    # the rule of the three scans, one layer down: each malformed value is an InputError that names the argument;
    # a complex value cast to float would fail here on its ComplexWarning
    with pytest.raises(InputError) as info:
        _export(export)(**{**_valid_arguments(export), argument: value})
    message = str(info.value)
    assert re.search(rf"(?<!\w){re.escape(name)}", message), message
    if value.dtype.kind in "Uc":
        assert message == f"{name} must be real numbers"


def _exported() -> set[str]:
    """Every callable the package exports, as module.name."""
    submodules = (importlib.import_module(f"npivtest.{m.name}") for m in pkgutil.iter_modules(npivtest.__path__))
    modules = [npivtest, *submodules]
    exports = (getattr(module, name) for module in modules for name in getattr(module, "__all__", ()))
    return {f"{obj.__module__.removeprefix('npivtest.')}.{obj.__name__}" for obj in exports if callable(obj)}


def test_every_export_is_probed_or_takes_no_array():
    # a new export must join the probe table, _ARRAY_FREE or _RESULTS, so none can skip the rule
    # a method's class counts as probed (NpivFit and RestrictedFit, whose fields are results too, and HSpec)
    probed = {".".join(export.split(".")[:2]) for export, *_ in _ARRAYS} | {f"adaptive.{scan}" for scan in _SCANS}
    assert not probed & set(_ARRAY_FREE)
    assert _exported() == probed | set(_ARRAY_FREE) | set(_RESULTS)


_SCALARS = [  # (export, argument, the start of its messages, "int" or "real", an out-of-range value; None: unbounded)
    ("adaptive.RunConfig", "alpha", "alpha", "real", 1.0),
    ("adaptive.RunConfig", "k_factor", "k_factor", "int", 1),
    ("adaptive.RunConfig", "support", "support hi", "real", 0.0),
    ("adaptive.RunConfig", "grid", "explicit grid entry", "int", 0),
    ("adaptive.eta_hat", "alpha", "alpha", "real", 0.0),
    ("adaptive.eta_hat", "grid_size", "grid_size", "int", 0),
    ("adaptive.eta_hat", "gamma", "gamma", "int", 0),
    ("adaptive.eta_hat", "center", "center", "int", 0),
    ("basis.BasisSpec", "dim", "bspline basis dim", "int", 2),
    ("basis.BasisSpec", "order", "order", "int", 1),
    ("basis.BasisSpec", "support", "support hi", "real", 0.0),
    ("basis.eval_design", "deriv", "derivative order deriv", "int", -1),
    ("basis.zeta", "dim", "dim", "int", 0),
    ("dgp.HSpec", "c0", "c0", "real", 1.5),
    ("dgp.HSpec", "c_a", "c_a", "real", None),
    ("dgp.HSpec", "c_b", "c_b", "real", None),
    ("dgp.DesignConfig", "n", "n", "int", 0),
    ("dgp.DesignConfig", "xi", "xi", "real", 1.0),
    ("dgp.h_mono", "c0", "c0", "real", 0.0),
    ("dgp.h_sin", "c_a", "c_a", "real", None),
    ("dgp.h_sin", "c_b", "c_b", "real", None),
    ("dgp.h_design2", "c_a", "c_a", "real", None),
    ("dgp.h_quad", "c_a", "c_a", "real", None),
    ("dgp.null_boundary", "c_b", "c_b", "real", None),
    ("linalg.pinv", "rcond", "rcond", "real", 1.0),
    ("randdist.RngStream", "master_seed", "master_seed", "int", None),
    ("randdist.RngStream", "stream_id", "stream_id", "int", -1),
    ("randdist.chisq_quantile", "a", "tail level a", "real", 1.0),
    ("randdist.chisq_quantile", "k", "degrees of freedom k", "int", 0),
    ("randdist.chisq_sf", "x", "x", "real", None),  # NaN and the infinities are decide's to judge
    ("randdist.chisq_sf", "k", "degrees of freedom k", "int", 0),
    ("randdist.mvn_sample", "n", "sample size n", "int", 0),
    ("sim.ExperimentSpec", "replications", "replications", "int", 0),
    ("sim.ExperimentSpec", "k_factor", "k_factor", "int", 1),
    ("sim.ExperimentSpec", "master_seed", "master_seed", "int", None),
    ("sim.ExperimentSpec", "n_values", "n", "int", 19),  # an axis names its values as their owners do
    ("sim.ExperimentSpec", "xi_values", "xi", "real", 1.0),
    ("sim.ExperimentSpec", "c0_values", "c0", "real", 1.5),
    ("sim.ExperimentSpec", "c_a_values", "c_a", "real", None),
    ("sim.ExperimentSpec", "c_b_values", "c_b", "real", None),
    ("sim.ExperimentSpec", "alphas", "alpha", "real", 1.0),
    ("sim.run_experiment", "jobs", "jobs", "int", 0),
    ("sim.reproduce", "replications", "replications", "int", 0),
    ("sim.reproduce", "seed", "master_seed", "int", None),
    ("sim.reproduce", "jobs", "jobs", "int", 0),
]
_NAN_ADMITTED = {("randdist.chisq_sf", "x")}
# arguments that hold scalars: a support is a pair (0, hi), whose hi must exceed 0; a grid and a spec's axes are lists
_WRAPPED = {"support": lambda v: (0.0, v), "grid": lambda v: [v], **{axis: lambda v: (v,) for axis in sim_module._AXES}}
# exports none of whose arguments is a scalar or an index set (a string names a choice)
_SCALAR_FREE = ("adaptive.NullSpec", "adaptive.adaptive_scan", "adaptive.adaptive_test", "adaptive.compute_D",
                "adaptive.cs_contains", "adaptive.image_space_scan", "adaptive.image_space_test",
                "basis.ConstraintMatrix", "basis.deriv_constraints", "basis.min_dim", "cli.main",
                "cli.load_csv_dataset", "cli.resolve_config", "cli.render_report", "dgp.draw", "dgp.generate",
                "errors.InputError", "errors.NumericalError", "linalg.frobenius_norm", "linalg.orthonormal_range",
                "npiv.cone_project", "npiv.fit_from_design", "npiv.fit_restricted_parametric",
                "npiv.parametric_design", "randdist.CovarianceSpec", "randdist.std_normal_cdf")
# records, and calls whose scalars are what the package computed: a scan's n (decide), a gram's eigenvalues and
# dimension (check_gram) and an array's shape (default_rcond)
_SCALAR_RESULTS = ("adaptive.CandidateGrid", "adaptive.CandidateRecord", "adaptive.TestReport", "adaptive.decide",
                   "dgp.Dataset", "linalg.check_gram", "linalg.default_rcond", "npiv.NpivFit", "npiv.RestrictedFit",
                   "sim.CellResult", "sim.McSummary")


def _malformed_scalars(export: str, argument: str, kind: str, out_of_range):
    """(probe, value): text, a bool, a complex value, a 1-element array, an integer-valued float where an integer
    is due, NaN unless the argument admits it, and a value outside the argument's bounds where it has them."""
    probes = [("text", "abc"), ("bool", True), ("complex", 0.5 + 0.5j), ("1-element array", np.array([1]))]
    if kind == "int":
        probes.append(("float", 2.0))
    if (export, argument) not in _NAN_ADMITTED:
        probes.append(("nan", math.nan))
    if out_of_range is not None:
        probes.append(("out of range", out_of_range))
    wrap = _WRAPPED.get(argument, lambda v: v)
    return [(probe, wrap(value)) for probe, value in probes]


@pytest.mark.parametrize("export", sorted({export for export, *_ in _SCALARS} - {export for export, *_ in _ARRAYS}))
def test_each_scalar_export_completes_on_its_valid_arguments(export):
    _export(export)(**_valid_arguments(export))


@pytest.mark.parametrize("export, argument, name, value", [
    pytest.param(export, argument, name, value, id=f"{export}-{argument}-{probe}")
    for export, argument, name, kind, out_of_range in _SCALARS
    for probe, value in _malformed_scalars(export, argument, kind, out_of_range)
])
def test_every_scalar_argument_of_an_export_follows_the_one_rule(export, argument, name, value):
    # one scalar rule: each malformed value is an InputError whose message starts with the argument's name
    with pytest.raises(InputError) as info:
        _export(export)(**{**_valid_arguments(export), argument: value})
    assert str(info.value).startswith(f"{name} must be "), str(info.value)


def test_every_export_is_probed_or_takes_no_scalar():
    # a new export must join _SCALARS, _SCALAR_FREE or _SCALAR_RESULTS; gamma_hat's index set has its own test
    probed = {export for export, *_ in _SCALARS} | {"adaptive.gamma_hat"}
    assert not probed & set(_SCALAR_FREE)
    assert _exported() == probed | set(_SCALAR_FREE) | set(_SCALAR_RESULTS)


@pytest.mark.parametrize("call, message", [
    (lambda: chisq_sf("abc", 3), "x must be a number, got 'abc'"),
    (lambda: chisq_quantile(0.05, "a"), "degrees of freedom k must be an integer >= 1, got 'a'"),
    (lambda: chisq_quantile(0.05, True), "degrees of freedom k must be an integer >= 1, got True"),
    (lambda: chisq_quantile(0.05, 3.0), "degrees of freedom k must be an integer >= 1, got 3.0"),
    (lambda: eta_hat("a", 3, 1), "alpha must be a number in (0, 1), got 'a'"),
    (lambda: h_mono("a", [0.5]), "c0 must be a finite number > 0, got 'a'"),
    (lambda: h_mono(math.nan, [0.5]), "c0 must be a finite number > 0, got nan"),
    (lambda: mvn_sample(CovarianceSpec(np.eye(2)), RngStream(0), "5"),
     "sample size n must be an integer >= 1, got '5'"),
    (lambda: BasisSpec("bspline", 4, support=("a", 1)), "support lo must be a finite number, got 'a'"),
    (lambda: BasisSpec("bspline", 4, support=(0.5, 0.5)), "support hi must be a finite number > 0.5, got 0.5"),
    (lambda: BasisSpec("bspline", 4.5), "bspline basis dim must be an integer >= 3, got 4.5"),
    (lambda: eval_design(bspline(4), [0.5], deriv=0.5), "derivative order deriv must be an integer >= 0, got 0.5"),
    (lambda: gamma_hat(deriv_constraints(bspline(4), "decreasing"), [0.5]),
     "active_set must be 1-d integer row indices in [0, 3), got [0.5]"),
], ids=["chisq_sf-text-x", "chisq_quantile-text-k", "chisq_quantile-bool-k", "chisq_quantile-float-k", "eta_hat-text",
        "h_mono-text", "h_mono-nan", "mvn_sample-text", "support-text", "support-empty", "dim-fraction",
        "deriv-fraction", "gamma_hat-float"])
def test_scalar_arguments_that_escaped_or_passed_unchecked(call, message):
    # each ended in a bare TypeError or IndexError, or completed, before the one scalar rule
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("active_set", [[0.5], [1.0, 2.0], ["a"], [[0, 1]], [[0], [1, 2]], [3], [-1], None],
                         ids=["float", "integer-valued-floats", "text", "2-d", "ragged", "past-the-rows", "negative",
                              "none"])
def test_gamma_hat_takes_row_indices_only(active_set):
    m = deriv_constraints(bspline(4), "decreasing")  # 3 rows
    with pytest.raises(InputError) as info:
        gamma_hat(m, active_set)
    assert str(info.value) == f"active_set must be 1-d integer row indices in [0, 3), got {active_set!r}"


def test_gamma_hat_counts_the_rank_of_the_active_rows():
    m = deriv_constraints(bspline(4), "decreasing")
    assert gamma_hat(m, []) == gamma_hat(m, np.empty(0, dtype=np.intp)) == gamma_hat(m, [1]) == 1
    assert gamma_hat(m, [0, 2]) == gamma_hat(m, np.array([0, 2], dtype=np.uint8)) == 2


def test_chisq_sf_leaves_a_non_finite_argument_to_decide():
    # decide's rule judges a non-finite statistic: an argument that overflowed to inf gives p = 0, and NaN stays NaN
    assert chisq_sf(math.inf, 3) == 0.0 and chisq_sf(-math.inf, 3) == 1.0 and math.isnan(chisq_sf(math.nan, 3))


def test_an_instrument_column_is_its_vector():
    # a 1-d w and its n x 1 view are one sample: each entry point gives the same outcome, bit for bit, and a
    # degenerate sample the same message, without the "per column" of a 2-d w
    y, x, w = _sample200()
    args = {"y": y, "x": x, "mu": None, "candidate": -0.2 * x, "model": "linear"}
    for scan, (run, _) in _SCANS.items():
        vector, column = (run({**args, "w": sample_w}) for sample_w in (w, w[:, None]))
        if scan != "cs_contains":
            vector, column = vector.to_dict(), column.to_dict()
        assert json.dumps(column) == json.dumps(vector)
    y, x, w = _discrete_instrument_sample(3)
    messages = []
    for sample_w in (w, w[:, None]):
        with pytest.raises(InputError) as info:
            adaptive_test(y, x, sample_w, NullSpec.from_name("linear"))
        messages.append(str(info.value))
    assert messages[0] == messages[1] and messages[0].endswith("with 3 distinct w value(s)")


def test_image_space_eta_error_names_k_df_and_centering():
    # bspline3 at n = 60 leaves the quadratic null the singleton grid {4}: df K - 3 = 1, centering K = 4
    data = generate(DesignConfig("I", 60, 0.5, HSpec("sin", c_a=0.5), RngStream(0, 0)))
    with pytest.raises(InputError) as info:
        image_space_test(data.y, data.x, data.w, "quadratic", config=RunConfig(basis="bspline3"))
    assert str(info.value) == ("critical value eta <= 0 at K=4 (alpha/1 too large for chi-square df=1 "
                               "centered at K=4); use a smaller alpha")


@pytest.mark.parametrize("rows", [150, 199, 201])
def test_image_space_custom_design_needs_one_row_per_observation(monkeypatch, rows):
    # each of the three scans checks the custom design's rows once, before any candidate, with one message
    data = generate(DesignConfig("I", 200, 0.5, HSpec("sin", c_a=0.5), RngStream(4, 2)))
    z = np.column_stack([np.ones(rows), np.linspace(0.0, 1.0, rows)])
    null, config = NullSpec(kind="parametric", custom_design=z), RunConfig(grid=(3, 4, 5))
    calls = _count_calls(monkeypatch, "fit_restricted_parametric", (adaptive_module,))
    for scan in (lambda: adaptive_test(data.y, data.x, data.w, null, config),
                 lambda: cs_contains(np.zeros(200), data.y, data.x, data.w, config, null),
                 lambda: image_space_test(data.y, data.x, data.w, z, config)):
        with pytest.raises(InputError) as info:
            scan()
        assert str(info.value) == f"custom design must have one row per observation: got {rows} rows for n=200"
    assert calls["calls"] == 0


def test_one_dimensional_custom_design_is_one_column():
    data = generate(DesignConfig("I", 200, 0.5, HSpec("sin", c_a=0.5), RngStream(4, 2)))
    cfg = RunConfig(grid="knots", k_factor=2)
    column, flat = (NullSpec(kind="parametric", custom_design=z) for z in (data.x[:, None], data.x))
    expected = adaptive_test(data.y, data.x, data.w, column, config=cfg).to_dict()
    assert json.dumps(adaptive_test(data.y, data.x, data.w, flat, config=cfg).to_dict()) == json.dumps(expected)
    expected = image_space_test(data.y, data.x, data.w, data.x[:, None], config=cfg).to_dict()
    assert json.dumps(image_space_test(data.y, data.x, data.w, data.x, config=cfg).to_dict()) == json.dumps(expected)


@pytest.mark.parametrize("name, statistic", [
    ("svd", "structural"), ("eigh", "structural"), ("lstsq", "structural"),
    ("matrix_rank", "structural"), ("eigvalsh", "image-space"),
])
def test_lapack_failures_are_numerical_errors(monkeypatch, name, statistic):
    # a decreasing null on an increasing truth binds the cone, so the NNLS and
    # the active-rank calls run too
    calls = {"calls": 0}

    def failing(*args, **kwargs):
        calls["calls"] += 1
        raise np.linalg.LinAlgError(f"{name} failed")

    data = generate(DesignConfig("I", 400, 0.5, HSpec("sin", c_a=2.0), RngStream(18, 0)))
    monkeypatch.setattr(np.linalg, name, failing)
    with pytest.raises(NumericalError):
        if statistic == "structural":
            adaptive_test(data.y, data.x, data.w, NullSpec.from_name("decreasing"), config=RunConfig(grid=(4,)))
        else:
            # a cosine instrument takes the exact stability step, whose lambda_max is an eigvalsh
            image_space_test(data.y, data.x, data.w, "linear", config=RunConfig(basis="cosine"))
    assert calls["calls"] > 0


@pytest.mark.parametrize("null", [
    NullSpec.from_name("decreasing"),
    NullSpec.from_name("linear"),
    NullSpec(kind="parametric", custom_design=np.ones((300, 1))),
], ids=["shape", "linear", "custom"])
def test_structural_statistic_needs_one_regressor_column(null):
    # a 2-d x is refused before the grid starts; the image-space scan takes it with a custom design
    data = generate(DesignConfig("I", 300, 0.5, HSpec("sin", c_a=0.5), RngStream(4, 6)))
    x2 = np.column_stack([data.x, data.w])
    with pytest.raises(InputError, match=r"needs one regressor as a 1-d x, got x of shape \(300, 2\)"):
        adaptive_test(data.y, x2, data.w, null)
    with pytest.raises(InputError, match="needs one regressor as a 1-d x"):
        cs_contains(np.zeros(300), data.y, x2, data.w, null=null)
    design = np.column_stack([np.ones(300), x2])
    assert image_space_test(data.y, x2, data.w, design).per_j


@pytest.mark.parametrize("grid", ["dyadic", "knots"])
@pytest.mark.parametrize("null", ["linear", "decreasing"])
def test_sample_too_small_for_the_basis_minimum_is_an_input_error(grid, null):
    # bspline3's minimum J = 4 needs K = 16 instrument columns, and some of them have no data at n = 60
    data = generate(DesignConfig("I", 60, 0.5, HSpec("sin", c_a=0.5), RngStream(2, 11)))
    with pytest.raises(InputError, match=r"too small for the bspline3 basis: its minimum candidate J=4 needs "
                                         r"K=16 instrument columns, whose gram B'B is singular at n=60"):
        adaptive_test(data.y, data.x, data.w, NullSpec.from_name(null), config=RunConfig(basis="bspline3", grid=grid))


def test_lapack_failure_at_the_basis_minimum_stays_a_numerical_error(monkeypatch):
    # only a singular B'B there says the sample is too small; a failed factorization is still exit 3
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("svd failed")

    data = generate(DesignConfig("I", 400, 0.5, HSpec("sin", c_a=0.5), RngStream(18, 0)))
    monkeypatch.setattr(np.linalg, "eigh", failing)
    monkeypatch.setattr(np.linalg, "svd", failing)
    with pytest.raises(NumericalError, match="svd failed"):
        adaptive_test(data.y, data.x, data.w, NullSpec.from_name("linear"), config=RunConfig(grid="knots"))


def test_scanned_grid_stops_where_k_reaches_n():
    # K = 10 J reaches n = 40 at J = 4: B'B is singular there, so the stability scan stops;
    # an explicit grid asking for that K is an input error naming it
    gen = np.random.default_rng(1)
    x, w = gen.uniform(size=40), gen.uniform(size=40)
    y = x + gen.normal(size=40)
    cfg = RunConfig(grid="knots", k_factor=10, basis="cosine")
    rep = adaptive_test(y, x, w, NullSpec.from_name("linear"), config=cfg)
    assert rep.grid.j_list == (1, 2, 3)
    assert rep.warnings == ("stability scan stopped at J=4: instrument gram B'B is numerically singular (dim 40)",)
    with pytest.raises(InputError) as info:
        adaptive_test(y, x, w, NullSpec.from_name("linear"), config=RunConfig(grid=(3, 4), k_factor=10, basis="cosine"))
    assert str(info.value) == ("sample too small for the cosine basis: its candidate J=4 needs K=40 instrument "
                               "columns, whose gram B'B is singular at n=40")


def _sample200():
    data = generate(DesignConfig("I", 200, 0.5, HSpec("sin", c_a=0.5), RngStream(4, 2)))
    return data.y, data.x, data.w


def _x_as_a_column():
    y, x, w = _sample200()
    return y, x[:, None], w


def _report_of_an_unscanned_j():
    return dataclasses.replace(adaptive_test(*_sample200(), NullSpec.from_name("linear")), j_reported=999)


@pytest.mark.parametrize("call, error, message", [
    (lambda: NullSpec(kind="shape"), InputError,
     "unknown shape None; expected one of ('decreasing', 'increasing', 'convex', 'concave')"),
    (lambda: NullSpec(kind="cone"), InputError, "unknown null kind 'cone'; expected one of ('shape', 'parametric')"),
    (lambda: NullSpec.from_name("linear").constraints(bspline(4)), InputError,
     "constraints are only defined for shape nulls"),
    (lambda: RunConfig(grid=[]), InputError, "explicit grid must be a non-empty list, got []"),
    (lambda: _report_of_an_unscanned_j().w_reported, KeyError, 999),
    (lambda: compute_D(np.ones((2, 3)), np.ones(4)), InputError,
     "need a 2-d scaled map and residuals, one per column, got (2, 3) and (4,)"),
    (lambda: eta_hat(0.05, 0, 1), InputError, "grid_size must be an integer >= 1, got 0"),
    (lambda: cs_contains((np.ones(3), bspline(4)), *_sample200()), InputError,
     "candidate coefficients must have shape (4,), got (3,)"),
    (lambda: cs_contains(np.full(200, np.nan), *_sample200()), InputError,
     "candidate values are non-finite on the sample"),
    (lambda: cs_contains("abc", *_sample200()), InputError, "candidate fitted values must be real numbers"),
    (lambda: cs_contains(lambda x: np.full(x.shape, "abc"), *_sample200()), InputError,
     "candidate function values must be real numbers"),
    (lambda: cs_contains((("abc", 0.0, 0.0, 0.0), bspline(4)), *_sample200()), InputError,
     "candidate coefficients must be real numbers"),
    (lambda: adaptive_test(*_sample200(), NullSpec(kind="shape", custom_rows=lambda spec: np.eye(1, spec.dim))),
     InputError, "candidate J=3: custom_rows(spec) must be a ConstraintMatrix, got ndarray"),
    (lambda: adaptive_test(*_sample200(), NullSpec(kind="shape", custom_rows=lambda spec: ConstraintMatrix(
        np.eye(1, 2), "custom"))), InputError, "candidate J=3: constraint matrix has dim 2, fit has J=3"),
    (lambda: adaptive_test(*_x_as_a_column(), NullSpec.from_name("decreasing")), InputError,
     "the structural statistic needs one regressor as a 1-d x, got x of shape (200, 1)"),
], ids=["shape-null-without-shape", "unknown-null-kind", "constraints-of-a-parametric-null", "empty-grid",
        "w-reported-of-a-missing-j", "map-and-residuals", "empty-grid-size", "coefficient-shape",
        "non-finite-candidate", "string-candidate", "callable-returning-strings", "coefficients-holding-a-string",
        "custom-rows-not-a-constraint-matrix", "custom-rows-of-another-width", "x-as-a-column"])
def test_adaptive_input_guards(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert info.value.args == (message,)


_VALUES = ("candidate must be callable, a (coeffs, BasisSpec) pair, or a vector of fitted values, with one value "
           "per observation: need shape (200,), got {}")
_GRID = "candidate function must return one value per point, got shape {} on 1001 grid points"


@pytest.mark.parametrize("candidate, null, message", [
    (lambda x: -0.2 * x, "decreasing", None),
    ((-0.2 * np.arange(4), bspline(4)), "decreasing", None),
    ((-0.2 * np.arange(4), bspline(4)), "linear", None),
    ("vector", "linear", None),
    (lambda x: (-0.2 * x)[:, None], "linear", _VALUES.format("(200, 1)")),
    (lambda x: (-0.2 * x)[:, None], "decreasing", _GRID.format("(1001, 1)")),
    (lambda x: (-0.2 * x)[:10], "linear", _VALUES.format("(10,)")),
    (lambda x: 0.5, "linear", _VALUES.format("()")),
    (lambda x: 0.5, "decreasing", _GRID.format("()")),
    (np.zeros(199), "linear", _VALUES.format("(199,)")),
], ids=["callable", "coefficients", "coefficients-parametric-null", "vector", "callable-column",
        "callable-column-shape-null", "callable-short", "callable-scalar", "callable-scalar-shape-null",
        "short-vector"])
def test_cs_contains_candidate_shape_rule(candidate, null, message):
    # one rule for all three forms: a candidate has one value per observation; a shape null's callable also
    # has one per point of its 1001-point check, so a column cannot pass that check by differencing its width
    y, x, w = _sample200()
    candidate = -0.2 * x if isinstance(candidate, str) else candidate
    if message is None:
        assert isinstance(cs_contains(candidate, y, x, w, null=NullSpec.from_name(null))[0], bool)
        return
    with pytest.raises(InputError) as info:
        cs_contains(candidate, y, x, w, null=NullSpec.from_name(null))
    assert str(info.value) == message
