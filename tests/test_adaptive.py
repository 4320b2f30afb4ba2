import json
import math
from collections import Counter
import pathlib
import warnings
import weakref

import numpy as np
import pytest
from scipy.special import ndtri

import npivtest.adaptive as adaptive_module
import npivtest.basis as basis_module
import npivtest.npiv as npiv_module
from npivtest.adaptive import (
    NullSpec,
    RunConfig,
    adaptive_scan,
    adaptive_test,
    compute_D,
    compute_vhat,
    cs_contains,
    decide,
    eta_hat,
    gamma_hat,
    image_space_test,
)
from npivtest.basis import BasisSpec, ConstraintMatrix, deriv_constraints, eval_design
from npivtest.dgp import DesignConfig, HSpec, generate
from npivtest.errors import InputError, NumericalError
from npivtest.linalg import orthonormal_range
from npivtest.npiv import fit_from_design, fit_restricted_cone, fit_restricted_parametric
from npivtest.randdist import RngStream, chisq_quantile

from oracles import (
    _max_support_count,
    brute_D,
    brute_image_D,
    brute_shat,
    brute_vhat,
    chisq_quantile_bisect,
    image_space_statistics_basis,
    image_space_step_dense,
    image_space_step_knot_counts,
    image_vhat_gram,
    instrument_design,
)

DATA_DIR = pathlib.Path(__file__).parent / "data"


def bspline(dim, order=3, **kw):
    return BasisSpec("bspline", dim, order, **kw)


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
    assert compute_vhat(fit.scaled_map, np.zeros(y.size)) == 0.0
    c = 2.7
    base = compute_vhat(fit.scaled_map, np.ones(y.size))
    assert compute_vhat(fit.scaled_map, c * np.ones(y.size)) == pytest.approx(c**2 * base, rel=1e-10)


def test_vhat_matches_brute_force(rng):
    for _ in range(15):
        n = 35
        x, w = rng.uniform(size=n), rng.uniform(size=n)
        psi = eval_design(bspline(4), x)
        b = eval_design(bspline(8), w)
        y = rng.normal(size=n)
        fit = fit_from_design(psi, b)
        u = rng.normal(size=n)
        assert compute_vhat(fit.scaled_map, u) == pytest.approx(brute_vhat(u, psi, b), rel=1e-8)
    assert compute_vhat(fit.scaled_map, y - psi @ fit.coefficients(y)) >= 0.0


# --------------------------------------------------------------- gamma / eta


def test_gamma_floor_and_equality(rng):
    fit, psi, _, y = small_fit(rng, n=60, j=4, k=8)
    m = deriv_constraints(bspline(4), "decreasing")
    rfit = fit_restricted_cone(fit, m, fit.coefficients(y), psi, y)
    assert gamma_hat(m, rfit.active_set) >= 1
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
    rfit = fit_restricted_cone(fit, m, fit.coefficients(y), psi, y)
    assert gamma_hat(m, rfit.active_set) == np.linalg.matrix_rank(m.rows)


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
    with pytest.raises(InputError, match="explicit grid must be a list of dims"):
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
    rfit = fit_restricted_cone(fit, deriv_constraints(psi_spec, "decreasing"), fit.coefficients(data.y), psi, data.y)
    contained, binding, _ = cs_contains(
        (rfit.beta_r, psi_spec), data.y, data.x, data.w, config=cfg, null=null
    )
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
    rfit = fit_restricted_parametric(data.y, data.x, "linear", fit.q, fit.r)
    contained, binding, detail = cs_contains(rfit.fitted_r, data.y, data.x, data.w, config=cfg, null=null)
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
    with pytest.warns(UserWarning):
        rep = adaptive_test(data.y, x, w, NullSpec.from_name("decreasing"))
    assert rep.warnings[:2] == (f"{n_x} points of x outside [0.0, 1.0] were clamped",
                                f"{n_w} points of w outside [0.0, 1.0] were clamped")
    with pytest.warns(UserWarning):
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
        r = fit_restricted_parametric(y, x, "linear", *orthonormal_range(b)[:2]).residuals_r
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
    grid, (entries,), warn, n = adaptive_module._structural_scan([data.y], data.x, data.w, null, config, designs)
    shared = [decide(grid, entries, n, null, config, warnings=warn).to_dict()]
    grid, (entries,), warn, n = adaptive_module._image_space_scan([data.y], data.x, data.w, null, config, designs)
    shared.append(decide(grid, entries, n, null, config, statistic="image-space", warnings=warn).to_dict())
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
    grid, results, warn, n = adaptive_module._structural_scan(ys, data.x, data.w, null, config, None)
    assert [decide(grid, entries, n, null, config, warnings=warn).to_dict() for entries in results] == alone
    assert len(ys) == 2 and sorted(built) == sorted(grid.shat) and set(built.values()) == {1}


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
    # at n = 5000 the knot-interval bound certifies every design-I step: no step builds a design,
    # forms B'B or calls eigvalsh, and each candidate's visit builds its design once
    eigvalsh = _count_calls(monkeypatch, "eigvalsh", (np.linalg,))
    data = generate(DesignConfig("I", 5000, 0.5, HSpec("sin", c_a=0.5), RngStream(4, 2)))
    rep, steps, built = _recorded_image_space_test(monkeypatch, data.y, data.x, data.w)
    assert len(steps) == rep.grid.hard_cap - rep.grid.j_list[0] + 1
    assert not any(exact for _, exact in steps)
    assert eigvalsh["calls"] == 0
    assert sorted(built) == sorted(rep.grid.j_list) == sorted(rep.grid.shat)


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


def _step_or_error(step, k):
    try:
        return step(k)
    except InputError as exc:
        return str(exc)


@pytest.mark.parametrize("n", [60, 500, 5000])
def test_image_space_table_steps_match_the_knot_count_oracle(n):
    # the per-process table's realized dims and noise levels, and the knot-interval counts of one search per
    # coordinate, are those the knot-count step derives at each step from its specs and each spec's own knot
    # vector, errors of tied quantile knots included; a 1-d step is the oracle's, and a 2-d step certifies
    # every step the oracle's does and is the oracle's where neither certifies
    gen = np.random.default_rng(n)
    tied = np.where(gen.uniform(size=n) < 0.7, 0.5, gen.uniform(size=n))  # its quantile knots tie from J = 5 on
    samples = [gen.uniform(size=n), tied, gen.beta(2.0, 5.0, size=(n, 2)), np.column_stack([gen.uniform(size=n), tied])]
    compared, errors = 0, 0
    for w in samples:
        columns = [w] if w.ndim == 1 else list(w.T)
        for basis in ("bspline2", "bspline3"):
            for knot_rule in ("equispaced", "quantile"):
                config = RunConfig(basis=basis, knot_rule=knot_rule)
                k_min = config.basis_min()
                rows, knots = adaptive_module._image_space_table(basis, config.support, n, len(columns), k_min)
                counts = [adaptive_module._coordinate_counts(config, knots, c) for c in columns]
                fast = adaptive_module._image_space_step(config, adaptive_module._Designs(w), n, k_min)
                oracle = image_space_step_knot_counts(config, adaptive_module._Designs(w), n, k_min)
                for k in range(config.basis_min(), len(rows)):
                    dim, noise, per_dim = rows[k]
                    specs = config.instrument_specs(k, w)
                    assert (dim, [spec.dim for spec in specs]) == (config.instrument_dim(k, len(columns)),
                                                                   [per_dim] * len(columns))
                    assert noise == adaptive_module._noise_level(specs, dim, n)
                    for spec, c, count in zip(specs, columns, counts):
                        expected = _step_or_error(lambda x: _max_support_count(spec, x), np.sort(np.clip(c, 0, 1)))
                        assert (str(count[per_dim]) if isinstance(count[per_dim], InputError) else count[per_dim]) \
                            == expected
                    got, want = _step_or_error(fast, k), _step_or_error(oracle, k)
                    errors += isinstance(want, str)
                    if isinstance(want, str) or w.ndim == 1 or got[2] is not None:
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
    # D and v from the K x K gram C = U_B' diag(r^2) U_B against compute_D / compute_vhat on the formed
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


def test_image_space_detects_quadratic_alternative():
    data = generate(DesignConfig("I", 500, 0.7, HSpec("sin", c_a=2.0), RngStream(24, 5)))
    rep = image_space_test(data.y, data.x, data.w, "linear", config=RunConfig(k_factor=4))
    assert rep.statistic == "image-space"
    assert rep.reject


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


def test_image_space_eta_error_names_k_df_and_centering():
    # bspline3 at n = 60 leaves the quadratic null the singleton grid {4}: df K - 3 = 1, centering K = 4
    data = generate(DesignConfig("I", 60, 0.5, HSpec("sin", c_a=0.5), RngStream(0, 0)))
    with pytest.raises(InputError) as info:
        image_space_test(data.y, data.x, data.w, "quadratic", config=RunConfig(basis="bspline3"))
    assert str(info.value) == ("critical value eta <= 0 at K=4 (alpha/1 too large for chi-square df=1 "
                               "centered at K=4); use a smaller alpha")


def test_image_space_custom_design_needs_one_row_per_observation():
    data = generate(DesignConfig("I", 200, 0.5, HSpec("sin", c_a=0.5), RngStream(4, 2)))
    with pytest.raises(InputError, match="parametric design and y must share the number of rows"):
        image_space_test(data.y, data.x, data.w, data.x[:150])


def test_one_dimensional_custom_design_is_one_column():
    data = generate(DesignConfig("I", 200, 0.5, HSpec("sin", c_a=0.5), RngStream(4, 2)))
    cfg = RunConfig(grid="knots", k_factor=2)
    column, flat = (NullSpec(kind="parametric", custom_design=z) for z in (data.x[:, None], data.x))
    expected = adaptive_test(data.y, data.x, data.w, column, config=cfg).to_dict()
    assert json.dumps(adaptive_test(data.y, data.x, data.w, flat, config=cfg).to_dict()) == json.dumps(expected)
    expected = image_space_test(data.y, data.x, data.w, data.x[:, None], config=cfg).to_dict()
    assert json.dumps(image_space_test(data.y, data.x, data.w, data.x, config=cfg).to_dict()) == json.dumps(expected)


@pytest.mark.parametrize("name, statistic", [
    ("svd", "structural"), ("eigh", "structural"), ("lstsq", "structural"), ("solve", "structural"),
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
    with pytest.raises(InputError, match=r"needs one regressor column, got x of shape \(300, 2\)"):
        adaptive_test(data.y, x2, data.w, null)
    with pytest.raises(InputError, match="needs one regressor column"):
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
    # an explicit grid asking for that K is an input error
    gen = np.random.default_rng(1)
    x, w = gen.uniform(size=40), gen.uniform(size=40)
    y = x + gen.normal(size=40)
    cfg = RunConfig(grid="knots", k_factor=10, basis="cosine")
    rep = adaptive_test(y, x, w, NullSpec.from_name("linear"), config=cfg)
    assert rep.grid.j_list == (1, 2, 3)
    assert rep.warnings == ("stability scan stopped at J=4: instrument gram B'B is numerically singular (dim 40)",)
    with pytest.raises(InputError, match="need n > K, got n=40, K=40"):
        adaptive_test(y, x, w, NullSpec.from_name("linear"), config=RunConfig(grid=(3, 4), k_factor=10, basis="cosine"))
