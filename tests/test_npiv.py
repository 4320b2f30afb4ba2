import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import npivtest.npiv as npiv_module
from npivtest.adaptive import gamma_hat
from npivtest.basis import BasisSpec, ConstraintMatrix, deriv_constraints, eval_design
from npivtest.dgp import DesignConfig, HSpec, generate
from npivtest.errors import InputError, NumericalError, SingularGramError, SingularRegressorGramError
from npivtest.linalg import orthonormal_range
from npivtest.npiv import (
    cone_project,
    fit_from_design,
    fit_restricted_cone,
    fit_restricted_parametric,
    parametric_design,
)
from npivtest.randdist import RngStream

from oracles import (
    brute_coeffs,
    compute_shat,
    cone_project_active_set,
    cone_project_enumerate,
    dykstra_project,
    fit_from_design_joint,
    fit_from_design_ub,
)


def bspline(dim, order=3, **kw):
    return BasisSpec("bspline", dim, order, **kw)


def blocks(n, scales):
    """n x len(scales) design whose column j is scales[j] on rows [j n/5, (j + 1) n/5) and 0 elsewhere."""
    m = n // 5
    design = np.zeros((n, len(scales)))
    for j, scale in enumerate(scales):
        design[j * m:(j + 1) * m, j] = scale
    return design


def random_spd(gen, dim, jitter=0.3):
    a = gen.normal(size=(dim, dim))
    return a.T @ a + jitter * np.eye(dim)


# ---------------------------------------------------------------- unrestricted


def test_exact_linear_fit(rng):
    n = 80
    x = rng.uniform(size=n)
    w = x  # exogenous case
    y = 1.5 + 2.0 * x
    psi = eval_design(BasisSpec("power", 2), x)
    fitted = psi @ fit_from_design(psi, eval_design(BasisSpec("power", 3), w)).coefficients(y)
    np.testing.assert_allclose(y - fitted, 0.0, atol=1e-8)
    np.testing.assert_allclose(fitted, y, atol=1e-8)


def test_orthogonal_target_gives_zero_coefficients(rng):
    n = 60
    x = rng.uniform(size=n)
    w = rng.uniform(size=n)
    psi = eval_design(bspline(4), x)
    b = eval_design(bspline(8), w)
    # y orthogonal to col(P_B Psi) zeroes the normal equations
    projected = b @ np.linalg.pinv(b.T @ b) @ (b.T @ psi)
    q, _ = np.linalg.qr(projected)
    raw = rng.normal(size=n)
    y = raw - q @ (q.T @ raw)
    np.testing.assert_allclose(fit_from_design(psi, b).coefficients(y), 0.0, atol=1e-8)


def test_matches_brute_force_2sls_design1():
    data = generate(DesignConfig("I", 500, 0.5, HSpec("mono", c0=1.0), RngStream(21, 0)))
    psi = eval_design(bspline(3), data.x)
    b = eval_design(bspline(6), data.w)
    beta = fit_from_design(psi, b).coefficients(data.y)
    np.testing.assert_allclose(beta, brute_coeffs(data.y, psi, b), atol=1e-8)
    # normal equations hold on the projected system
    lhs = psi.T @ (b @ np.linalg.pinv(b.T @ b) @ (b.T @ psi)) @ beta
    rhs = psi.T @ (b @ np.linalg.pinv(b.T @ b) @ (b.T @ data.y))
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * (1.0 + np.linalg.norm(rhs))


def test_fit_scale_equivariance(rng):
    n = 70
    x, w = rng.uniform(size=n), rng.uniform(size=n)
    y = rng.normal(size=n)
    fit = fit_from_design(eval_design(bspline(4), x), eval_design(bspline(8), w))
    np.testing.assert_allclose(fit.coefficients(3.0 * y), 3.0 * fit.coefficients(y), atol=1e-12)


def test_fit_dimension_guards(rng):
    n = 30
    x, w = rng.uniform(size=n), rng.uniform(size=n)
    with pytest.raises(InputError):
        fit_from_design(eval_design(bspline(6), x), eval_design(bspline(4), w))  # K < J
    with pytest.raises(InputError):
        fit_from_design(eval_design(bspline(4), x[:25]), eval_design(bspline(26), w[:25]))  # n <= K
    with pytest.raises(InputError):
        fit_from_design(eval_design(bspline(4), x), eval_design(bspline(8), w[:25]))  # rows differ
    fit = fit_from_design(eval_design(bspline(4), x), eval_design(bspline(8), w))
    with pytest.raises(InputError, match="shape"):
        fit.coefficients(np.ones(n - 1))
    with pytest.raises(InputError, match="non-finite"):
        fit.coefficients(np.full(n, np.nan))


def test_rank_deficiency_warning(rng):
    # a regressor column orthogonal to the instruments leaves U_B'Psi rank deficient;
    # a duplicated column makes Psi'Omega Psi itself singular, which is an error
    n = 50
    x = rng.uniform(size=n)
    b = eval_design(bspline(8), rng.uniform(size=n))
    q, r, _ = orthonormal_range(b)
    e = rng.normal(size=n)
    psi = np.column_stack([np.ones(n), x, e - q @ (r @ (r.T @ (q.T @ e)))])
    fit = fit_from_design(psi, b)
    assert any("rank deficient" in msg for msg in fit.warnings)
    with pytest.raises(NumericalError, match="weighted regressor gram"):
        fit_from_design(np.column_stack([np.ones(n), x, x, x**2]), b)
    # M^+ is cut, with the warning, exactly when s_min(M) <= 1e-12 n s_max(M): on four instrument blocks,
    # Psi's third column eps block_3 + block_5 has M's singular values (1, 1, eps / sqrt(1 + eps^2))
    n, cut = 80, 1e-12 * 80
    b = blocks(n, [1.0] * 4)
    for eps, kept in ((cut * (1 - 1e-3), 2), (cut * (1 + 1e-3), 3)):
        psi = blocks(n, [1.0, 1.0, eps])
        psi[4 * (n // 5):, 2] = 1.0
        fit = fit_from_design(psi, b)
        assert np.linalg.matrix_rank(fit.m_pinv, tol=1e-3) == kept
        assert any("pseudo-inverse truncation applied" in msg for msg in fit.warnings) == (kept == 2)


@pytest.mark.parametrize("family, order", [("bspline", 3), ("bspline", 4), ("cosine", 2), ("power", 2)])
def test_fit_matches_the_two_factorization_oracle(family, order):
    # one factorization per candidate gives the old fit's beta and scaled map and compute_shat's
    # s_hat; on power designs the old gram-based s_hat itself is off by up to about 1e-7
    gen = np.random.default_rng(11)
    n = 500
    x, w = gen.uniform(size=n), gen.uniform(size=n)
    y = np.sin(3.0 * x) + gen.normal(size=n)
    for mu in (None, gen.uniform(0.5, 2.0, size=n)):
        for j in range(order, 7):
            psi = eval_design(BasisSpec(family, j, order), x)
            b = eval_design(BasisSpec(family, 2 * j, order), w)
            try:
                old, old_s = fit_from_design_ub(y, psi, b, mu), compute_shat(psi, b, mu)
            except NumericalError as exc:
                with pytest.raises(NumericalError, match=re.escape(str(exc))):
                    fit_from_design(psi, b, mu)
                continue
            fit = fit_from_design(psi, b, mu)
            beta = fit.coefficients(y)
            assert np.linalg.norm(beta - old.beta) <= 1e-10 * np.linalg.norm(old.beta)
            assert np.linalg.norm(fit.scaled_map - old.scaled_map) <= 1e-10 * np.linalg.norm(old.scaled_map)
            assert fit.s_hat == pytest.approx(old_s, rel=1e-6 if family == "power" else 1e-12)


def _assert_matches_the_joint_fit(y, psi, b, mu=None):
    try:
        old = fit_from_design_joint(y, psi, b, mu)
    except (InputError, NumericalError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            fit_from_design(psi, b, mu)
        return None
    fit = fit_from_design(psi, b, mu)
    beta = fit.coefficients(y)
    assert np.array_equal(beta, old.beta)
    assert np.array_equal(y - psi @ beta, old.residuals)
    assert np.array_equal(fit.scaled_map, old.scaled_map)
    assert fit.s_hat == old.s_hat
    assert fit.warnings == old.warnings
    return fit


@pytest.mark.parametrize("family, order", [("bspline", 3), ("bspline", 4), ("cosine", 2), ("power", 2)])
def test_split_fit_matches_the_joint_fit_bit_for_bit(family, order):
    # the factor and coefficients(y) keep the joint fit's arithmetic: beta = L^{-T}(M^+(r'(q'y))),
    # u = y - Psi beta and S = (M^+ r')q'
    gen = np.random.default_rng(12)
    n = 400
    x, w = gen.uniform(size=n), gen.uniform(size=n)
    y = np.cos(2.0 * x) + gen.normal(size=n)
    for mu in (None, gen.uniform(0.5, 2.0, size=n)):
        for j in range(order, 8):
            psi = eval_design(BasisSpec(family, j, order), x)
            _assert_matches_the_joint_fit(y, psi, eval_design(BasisSpec(family, 3 * j, order), w), mu)


def test_split_fit_matches_the_joint_fit_when_rank_deficient(rng):
    n = 200
    x, w, y = rng.uniform(size=n), rng.uniform(size=n), rng.normal(size=n)
    b = eval_design(bspline(8), w)
    q, r, _ = orthonormal_range(b)
    e = rng.normal(size=n)
    # a regressor column orthogonal to the instruments truncates M^+
    psi = np.column_stack([np.ones(n), x, e - q @ (r @ (r.T @ (q.T @ e)))])
    fit = _assert_matches_the_joint_fit(y, psi, b)
    assert any("projected regressor design is rank deficient" in msg for msg in fit.warnings)
    # at the cutoff 1e-12 n, a near-duplicate instrument column close enough to be cut makes B'B singular first
    b_cut = np.column_stack([b, b[:, 0] + 1e-9 * rng.normal(size=n)])
    assert _assert_matches_the_joint_fit(y, eval_design(bspline(4), x), b_cut) is None
    with pytest.raises(NumericalError, match="instrument gram B'B is numerically singular"):
        fit_from_design(eval_design(bspline(4), x), b_cut)
    # a singular weighted gram is the same error
    assert _assert_matches_the_joint_fit(y, np.column_stack([np.ones(n), x, x]), b) is None


def test_gram_rule_boundaries():
    # one rule for B'B and Psi'Omega Psi: singular exactly when lam_min <= 1e-12 dim lam_max.
    # Block columns scaled (1, ..., 1, t) have gram eigenvalues proportional to (1, ..., 1, t^2)
    n = 80
    psi = blocks(n, [1.0, 1.0])
    for t, singular in ((math.sqrt(4e-12) * (1 - 1e-6), True), (math.sqrt(4e-12) * (1 + 1e-6), False)):
        b = blocks(n, [1.0, 1.0, 1.0, t])
        if singular:
            with pytest.raises(SingularGramError, match=r"^instrument gram B'B is numerically singular \(dim 4\)$"):
                orthonormal_range(b)
            with pytest.raises(SingularGramError, match=r"^instrument gram B'B is numerically singular \(dim 4\)$"):
                fit_from_design(psi, b)
        else:
            q, r, _ = orthonormal_range(b)
            assert (q @ r).shape == (n, 4)
            assert fit_from_design(psi, b).r.shape == (4, 4)
    b = blocks(n, [1.0] * 4)
    for t, singular in ((math.sqrt(3e-12) * (1 - 1e-6), True), (math.sqrt(3e-12) * (1 + 1e-6), False)):
        psi = blocks(n, [1.0, 1.0, t])
        if singular:
            with pytest.raises(SingularRegressorGramError,
                               match=r"^weighted regressor gram Psi'Omega Psi is numerically singular \(dim 3\)$"):
                fit_from_design(psi, b)
        else:
            assert fit_from_design(psi, b).l_inv_t.shape == (3, 3)


# ------------------------------------------------------------- cone projection


def test_cone_project_feasible_point(rng):
    g = random_spd(rng, 4)
    m = np.array([[1.0, 0.0, 0.0, 0.0]])
    v = np.array([-1.0, 0.5, 0.2, -0.3])
    beta, active = cone_project(v, g, m)
    np.testing.assert_allclose(beta, v, atol=1e-12)
    assert active.size == 0


def test_cone_project_coordinate_halfspace():
    beta, active = cone_project(np.array([1.0, 2.0]), np.eye(2), np.array([[1.0, 0.0]]))
    np.testing.assert_allclose(beta, [0.0, 2.0], atol=1e-12)
    np.testing.assert_array_equal(active, [0])


def test_cone_project_single_constraint_closed_form(rng):
    g = random_spd(rng, 3)
    m_row = rng.normal(size=3)
    v = rng.normal(size=3) + 5.0 * m_row  # violated
    beta, _ = cone_project(v, g, m_row[None, :])
    g_inv = np.linalg.inv(g)
    expected = v - (m_row @ v) / (m_row @ g_inv @ m_row) * (g_inv @ m_row)
    np.testing.assert_allclose(beta, expected, atol=1e-10)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_cone_project_matches_enumeration(dim):
    gen = np.random.default_rng(100 + dim)
    for _ in range(60):
        g = random_spd(gen, dim, jitter=0.5)
        n_rows = gen.integers(1, dim + 2)
        m = gen.normal(size=(n_rows, dim))
        v = gen.normal(size=dim) * 2.0
        beta, active = cone_project(v, g, m)
        oracle = cone_project_enumerate(v, g, m)
        np.testing.assert_allclose(beta, oracle, atol=1e-8)
        slack = m @ beta
        assert np.all(slack <= 1e-8 * (1.0 + np.abs(slack).max()))


def test_cone_project_agrees_with_dykstra(rng):
    g = random_spd(rng, 4)
    spec = bspline(4)
    m = deriv_constraints(spec, "decreasing").rows
    v = rng.normal(size=4) + 2.0
    beta, _ = cone_project(v, g, m)
    np.testing.assert_allclose(beta, dykstra_project(v, g, m), atol=1e-6)


def test_cone_project_kkt_conditions(rng):
    for trial in range(40):
        gen = np.random.default_rng(trial)
        dim = int(gen.integers(2, 7))
        g = random_spd(gen, dim)
        m = gen.normal(size=(int(gen.integers(1, dim + 1)), dim))
        v = gen.normal(size=dim) * 1.5
        beta, active = cone_project(v, g, m)
        grad = g @ (beta - v)
        if active.size:
            lam, *_ = np.linalg.lstsq(m[active].T, -grad, rcond=None)
            np.testing.assert_allclose(m[active].T @ lam, -grad, atol=1e-6)
            assert np.all(lam >= -1e-6 * (1.0 + np.abs(lam).max()))
            comp = (m @ beta)[active]
            np.testing.assert_allclose(comp, 0.0, atol=1e-7)
        else:
            np.testing.assert_allclose(grad, 0.0, atol=1e-8)


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=40)
def test_cone_project_nonexpansive_and_pythagoras(seed):
    gen = np.random.default_rng(seed)
    dim = int(gen.integers(2, 6))
    g = random_spd(gen, dim)
    m = gen.normal(size=(dim - 1, dim))
    v1, v2 = gen.normal(size=dim), gen.normal(size=dim)
    p1, _ = cone_project(v1, g, m)
    p2, _ = cone_project(v2, g, m)

    def gnorm2(z):
        return float(z @ g @ z)

    assert gnorm2(p1 - p2) <= gnorm2(v1 - v2) + 1e-8
    # Moreau-style decomposition at the optimum: <v - P(v), P(v)>_G = 0 for cones
    cross = float((v1 - p1) @ g @ p1)
    assert cross >= -1e-8 * (1.0 + gnorm2(v1))
    assert abs(cross) <= 1e-6 * (1.0 + gnorm2(v1))


def _random_deriv_cone(gen):
    """A derivative cone of a random B-spline basis, with metric and v at scales 10^[-3, 5]."""
    order = int(gen.choice([3, 4]))
    kind = str(gen.choice(["decreasing", "increasing", "convex", "concave"]))
    dim = int(gen.integers(4, 20))
    m = deriv_constraints(bspline(dim, order), kind).rows
    g = random_spd(gen, dim) * 10.0 ** gen.uniform(-3, 5)
    v = gen.normal(size=dim) * 10.0 ** gen.uniform(-3, 5)
    return v, g, m


def test_cone_project_matches_active_set_oracle():
    gen = np.random.default_rng(2024)
    for _ in range(1000):
        v, g, m = _random_deriv_cone(gen)
        beta, active = cone_project(v, g, m)
        beta_qp, active_qp = cone_project_active_set(v, g, m)
        assert np.linalg.norm(beta - beta_qp) <= 1e-10 * np.linalg.norm(beta_qp)
        np.testing.assert_array_equal(active, active_qp)


def test_cone_project_is_scale_equivariant():
    gen = np.random.default_rng(77)
    for _ in range(40):
        v, g, m = _random_deriv_cone(gen)
        beta, active = cone_project(v, g, m)
        for k in (-12, -9, -6, -3, 3, 6, 9, 12):
            beta_k, active_k = cone_project(10.0**k * v, g, m)
            assert np.linalg.norm(beta_k - 10.0**k * beta) <= 1e-10 * 10.0**k * np.linalg.norm(beta)
            np.testing.assert_array_equal(active_k, active)


def test_cone_project_small_norm_matches_enumeration():
    # |v| = 1e-5 in a metric of scale 1e-2: the primal active-set QP's
    # absolute tolerance floors stopped it at rel 2e-2 from this optimum
    gen = np.random.default_rng(0)
    m = deriv_constraints(bspline(8, 4), "concave").rows
    a = gen.normal(size=(8, 8))
    g = 1e-2 * (a.T @ a + 0.3 * np.eye(8))
    v = gen.normal(size=8)
    v *= 1e-5 / np.linalg.norm(v)
    beta, _ = cone_project(v, g, m)
    oracle = cone_project_enumerate(v, g, m)
    assert np.linalg.norm(beta - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_shape_null_test_does_not_import_scipy_optimize(checkout_env):
    # the cone solver is plain numpy; scipy.optimize would add its import time and memory to every run
    code = (
        "import sys\n"
        "import npivtest\n"
        "from npivtest.dgp import DesignConfig, HSpec, generate\n"
        "from npivtest.randdist import RngStream\n"
        "d = generate(DesignConfig('I', 400, 0.9, HSpec('sin', c_a=3.0, c_b=1.0), RngStream(3, 0)))\n"
        "rep = npivtest.adaptive_test(d.y, d.x, d.w, npivtest.NullSpec.from_name('decreasing'))\n"
        "assert any(rec.n_active for rec in rep.per_j)\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=checkout_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cone_project_shape_guards():
    with pytest.raises(InputError):
        cone_project(np.ones(3), np.eye(2), np.ones((1, 3)))
    with pytest.raises(InputError):
        cone_project(np.ones(2), -np.eye(2), np.ones((1, 2)))


def test_cone_project_on_rows_of_every_scale_matches_enumeration():
    # rows scaled by 10^U(-8, 8): the NNLS on the raw rows left 85 of these 2 000 projections off the projection
    # and 76 outside the cone; unit rows give the same cone, and the oracle takes them
    gen = np.random.default_rng(0)
    wrong = infeasible = 0
    for _ in range(2000):
        j, k = int(gen.integers(2, 7)), int(gen.integers(2, 9))
        rows = gen.standard_normal((k, j)) * 10.0 ** gen.uniform(-8.0, 8.0, size=(k, 1))
        v = gen.standard_normal(j)
        unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        beta, _ = cone_project(v, np.eye(j), rows)
        wrong += np.linalg.norm(beta - cone_project_enumerate(v, np.eye(j), unit)) > 1e-6
        infeasible += np.max(unit @ beta) > 1e-6
    assert (wrong, infeasible) == (0, 0)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_a_positive_row_scale_leaves_the_projection_the_active_set_and_gamma(seed):
    gen = np.random.default_rng(seed)
    j = int(gen.integers(2, 7))
    g = random_spd(gen, j)
    rows = gen.standard_normal((int(gen.integers(1, j + 2)), j))
    v = gen.standard_normal(j) * 10.0 ** gen.uniform(-3, 3)
    scaled = rows * 10.0 ** gen.uniform(-8.0, 8.0, size=(rows.shape[0], 1))
    beta, active = cone_project(v, g, rows)
    beta_s, active_s = cone_project(v, g, scaled)
    assert np.linalg.norm(beta_s - beta) <= 1e-10 * np.linalg.norm(v)  # beta may be the origin, up to rounding
    np.testing.assert_array_equal(active_s, active)
    assert gamma_hat(ConstraintMatrix(scaled, "custom"), active) == gamma_hat(ConstraintMatrix(rows, "custom"), active)


@pytest.mark.parametrize("rows, v, lam", [
    ([[1.0, 0.0]], [1.0, 2.0], [0.5]),  # beta = (0.5, 2) leaves the cone
    ([[1.0, 0.0], [0.0, 1.0]], [1.0, -1.0], [1.0, -0.5]),  # a negative multiplier
    ([[1.0, 0.0]], [1.0, 2.0], [3.0]),  # beta = (-2, 2): a positive multiplier on a slack row
], ids=["primal", "dual", "complementary"])
def test_a_projection_that_fails_its_kkt_check_is_a_numerical_error(monkeypatch, rows, v, lam):
    # the multipliers are those of v / |v|, so an NNLS answer is taken in those units
    monkeypatch.setattr(npiv_module, "_nnls", lambda a, b: np.array(lam) / np.linalg.norm(v))
    with pytest.raises(NumericalError) as info:
        cone_project(np.array(v), np.eye(2), np.array(rows))
    assert str(info.value) == f"cone projection failed its KKT check (J=2, rows={len(rows)})"


@pytest.mark.parametrize("v", [[0.0, 1.0, 2.0], [2.0, 1.0, 0.0], [1.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
def test_a_zero_row_is_vacuous_and_always_active(v):
    # the zero row stays zero at unit norm: beta and gamma are those without it, and the row is active
    rows = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, -1.0]])
    beta, active = cone_project(np.array(v), np.eye(3), rows)
    beta_without, active_without = cone_project(np.array(v), np.eye(3), rows[[0, 2]])
    np.testing.assert_array_equal(beta, beta_without)
    np.testing.assert_array_equal(active, sorted([1, *(2 * active_without)]))
    m, m_without = ConstraintMatrix(rows, "custom"), ConstraintMatrix(rows[[0, 2]], "custom")
    assert gamma_hat(m, active) == gamma_hat(m_without, active_without)


def test_cone_project_nonconvergence_names_the_problem(monkeypatch):
    monkeypatch.setattr(npiv_module, "_nnls", lambda a, b: None)
    with pytest.raises(NumericalError, match=r"J=2, rows=1"):
        cone_project(np.array([1.0, 2.0]), np.eye(2), np.array([[1.0, 0.0]]))


# --------------------------------------------------------------- restricted fits


def _design_fit(rng, n=120, j=4, k=8):
    """(fit, psi, y, beta, m): a decreasing-cone problem on one factored candidate."""
    x, w = rng.uniform(size=n), rng.uniform(size=n)
    y = rng.normal(size=n) + 0.5 * x
    psi = eval_design(bspline(j), x)
    fit = fit_from_design(psi, eval_design(bspline(k), w))
    return fit, psi, y, fit.coefficients(y), deriv_constraints(bspline(j), "decreasing")


def test_restricted_cone_feasible_unchanged(rng):
    fit, psi, y, beta, m = _design_fit(rng)
    feasible = np.all(m.rows @ beta <= 0)
    rfit = fit_restricted_cone(fit, m, beta, psi, y)
    assert np.all(m.rows @ rfit.beta_r <= 1e-8 * (1.0 + np.linalg.norm(rfit.beta_r)))
    if feasible:
        np.testing.assert_allclose(rfit.beta_r, beta, atol=1e-10)


def test_restricted_weighted_ssr_never_improves(rng):
    fit, psi, y, beta, m = _design_fit(rng)
    rfit = fit_restricted_cone(fit, m, beta, psi, y)
    gap = psi @ beta - rfit.fitted_r
    ssr = float(np.sum(gap**2))  # unit weights
    d = rfit.beta_r - beta
    np.testing.assert_allclose(ssr, float(d @ fit.gram_weighted @ d), atol=1e-8)
    assert ssr >= -1e-12


def test_restricted_kkt_orthogonality(rng):
    fit, psi, y, beta, m = _design_fit(rng, n=200, j=5, k=10)
    rfit = fit_restricted_cone(fit, m, beta, psi, y)
    gap = beta - rfit.beta_r
    cross = float(gap @ fit.gram_weighted @ rfit.beta_r)
    scale = float(beta @ fit.gram_weighted @ beta)
    assert abs(cross) <= 1e-6 * (1.0 + scale)


def test_restricted_cone_checks_the_constraint_dimension(rng):
    fit, psi, y, beta, _ = _design_fit(rng)
    with pytest.raises(InputError, match="constraint matrix has dim 5, fit has J=4"):
        fit_restricted_cone(fit, deriv_constraints(bspline(5), "decreasing"), beta, psi, y)


def test_restricted_monotone_derivative_on_grid():
    data = generate(DesignConfig("I", 400, 0.5, HSpec("sin", c_a=2.0), RngStream(33, 4)))
    spec = bspline(5)
    psi = eval_design(spec, data.x)
    fit = fit_from_design(psi, eval_design(bspline(10), data.w))
    rfit = fit_restricted_cone(fit, deriv_constraints(spec, "decreasing"), fit.coefficients(data.y), psi, data.y)
    grid = np.linspace(0.0, 1.0, 1000)
    deriv = eval_design(spec, grid, deriv=1) @ rfit.beta_r
    assert np.all(deriv <= 1e-10)


def test_parametric_exact_linear(rng):
    n = 90
    x, w = rng.uniform(size=n), rng.uniform(size=n)
    y = 0.7 - 1.3 * x
    rfit = fit_restricted_parametric(y, x, "linear", *orthonormal_range(eval_design(bspline(6), w))[:2])
    np.testing.assert_allclose(rfit.residuals_r, 0.0, atol=1e-9)
    assert rfit.active_set.size == 0
    assert rfit.beta_r.size == 2


def test_parametric_iv_ratio_single_instrument(rng):
    n = 300
    w = rng.normal(size=n)
    x = 0.8 * w + rng.normal(size=n)
    y = 2.0 * x + rng.normal(size=n)
    rfit = fit_restricted_parametric(y, x[:, None], x[:, None], *orthonormal_range(np.column_stack([w]))[:2])
    slope = rfit.beta_r[0]
    assert slope == pytest.approx((w @ y) / (w @ x), abs=1e-10)


def test_parametric_quadratic_equals_custom_design(rng):
    n = 150
    x, w = rng.uniform(size=n), rng.uniform(size=n)
    y = rng.normal(size=n)
    q, r, _ = orthonormal_range(eval_design(bspline(8), w))
    fit_a = fit_restricted_parametric(y, x, "quadratic", q, r)
    custom = np.column_stack([np.ones(n), x, x**2])
    fit_b = fit_restricted_parametric(y, x, custom, q, r)
    np.testing.assert_allclose(fit_a.fitted_r, fit_b.fitted_r, atol=1e-10)


def test_parametric_rank_guard(rng):
    n = 60
    x, w = rng.uniform(size=n), rng.uniform(size=n)
    y = rng.normal(size=n)
    degenerate = np.column_stack([np.ones(n), np.ones(n)])
    with pytest.raises(InputError):
        fit_restricted_parametric(y, x, degenerate, *orthonormal_range(eval_design(bspline(6), w))[:2])
    # one cutoff, pinv's 1e-12 n: Z = (block_1, eps block_2 + block_5) projects onto four instrument
    # blocks with singular values in the ratio eps; below the cutoff it raises, above it df is both columns
    for n in (50, 1000):
        cut, b = 1e-12 * n, blocks(n, [1.0] * 4)
        q, r, _ = orthonormal_range(b)
        for eps, raises in ((cut * (1 - 1e-3), True), (cut * (1 + 1e-3), False)):
            z = blocks(n, [1.0, eps])
            z[4 * (n // 5):, 1] = 1.0
            y = z @ np.array([1.0, 2.0]) + rng.normal(size=n)
            if raises:
                with pytest.raises(InputError, match="rank deficient after instrument projection"):
                    fit_restricted_parametric(y, None, z, q, r)
            else:
                assert fit_restricted_parametric(y, None, z, q, r).beta_r.size == 2


def test_restricted_positive_homogeneity(rng):
    # cone projections commute with positive scaling of the target: one factor, outcomes y and 2.5 y
    fit, psi, y, beta, m = _design_fit(rng)
    r1 = fit_restricted_cone(fit, m, beta, psi, y)
    r2 = fit_restricted_cone(fit, m, fit.coefficients(2.5 * y), psi, 2.5 * y)
    np.testing.assert_allclose(r2.beta_r, 2.5 * r1.beta_r, atol=1e-8)


@pytest.mark.parametrize("call, message", [
    (lambda: fit_from_design(np.full((30, 3), np.nan), np.ones((30, 6))),
     "regressor design Psi contains non-finite values"),
    (lambda: cone_project(np.ones(3), np.eye(3), np.ones((1, 2))), "constraint rows have 2 columns, expected 3"),
    (lambda: parametric_design(np.zeros((5, 2)), "linear"),
     "named model 'linear' expects a scalar regressor; pass a custom design instead"),
    (lambda: parametric_design(np.zeros(5), "cubic"),
     "unknown parametric model 'cubic'; expected one of ('linear', 'quadratic')"),
    (lambda: fit_restricted_parametric(np.ones(5), np.arange(5.0), np.ones((4, 1)), np.eye(5, 2), np.eye(2)),
     "parametric design and y must share the number of rows"),
    (lambda: fit_restricted_parametric(np.ones(5), np.arange(5.0), "linear", np.eye(4, 2), np.eye(2)),
     "instrument basis and y must share the number of rows"),
], ids=["non-finite-psi", "constraint-width", "named-model-of-2-d-x", "unknown-model", "design-rows", "basis-rows"])
def test_npiv_input_guards(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("rows, columns", [(slice(-1), slice(None)), (slice(None), slice(-1))], ids=["rows", "columns"])
def test_restricted_cone_needs_one_psi_row_per_outcome_and_one_column_per_coefficient(rng, rows, columns):
    # a Psi that disagrees with y or beta would broadcast its fitted values, or fail inside numpy's matmul
    fit, psi, y, beta, m = _design_fit(rng)
    with pytest.raises(InputError) as info:
        fit_restricted_cone(fit, m, beta, psi[rows, columns], y)
    assert str(info.value) == f"regressor design Psi must have shape (120, 4), got {psi[rows, columns].shape}"


def test_restricted_cone_needs_one_coefficient_per_constraint_column(rng):
    fit, psi, y, beta, m = _design_fit(rng)
    with pytest.raises(InputError) as info:
        fit_restricted_cone(fit, m, beta[:-1], psi, y)
    assert str(info.value) == "beta must have shape (4,), got (3,)"


def _rounding_exit(a, b):
    """_nnls(a, b), and whether it left by its rounding exit: a zero column that still gains, which its KKT exit
    never leaves."""
    x = npiv_module._nnls(a, b)
    tol = npiv_module.NNLS_TOL * np.linalg.norm(b) * np.linalg.norm(a, axis=0)
    return x, bool(np.any((x == 0.0) & (a.T @ (b - a @ x) - tol > 0.0)))


def test_cone_projection_through_the_nnls_rounding_exit():
    # rows scaled by 10^U(-4, 4) leave a few percent of the NNLS on the raw rows at a column whose gain passes
    # the tolerance but whose least-squares step is not positive; cone_project, whose NNLS takes unit rows,
    # still returns the projection on every such draw
    gen = np.random.default_rng(0)
    exits = 0
    for _ in range(500):
        j, k = int(gen.integers(2, 7)), int(gen.integers(2, 9))
        rows = gen.standard_normal((k, j)) * 10.0 ** gen.uniform(-4.0, 4.0, size=(k, 1))
        v = gen.standard_normal(j)
        if np.all(rows @ v <= npiv_module.ACTIVE_TOL * np.linalg.norm(v) * np.linalg.norm(rows, axis=1)):
            continue  # v is in the cone: no NNLS
        beta, _ = cone_project(v, np.eye(j), rows)
        _, rounding = _rounding_exit(rows.T, v)
        if rounding:
            exits += 1
            # the oracle's feasibility tolerance is not per row, so it takes unit rows (the same cone)
            unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
            np.testing.assert_allclose(beta, cone_project_enumerate(v, np.eye(j), unit), rtol=0, atol=1e-6)
    assert exits >= 5


def test_cone_projection_past_the_nnls_iteration_cap(monkeypatch):
    # an inner solve that never settles: it keeps the column that entered last and drops the one before, so on
    # a = I columns 0 and 1 take turns until the loop's 3p iterations run out
    before: set[int] = set()

    def lstsq(a, b, rcond=None):
        nonlocal before
        passive = [int(i) for i in np.argmax(a, axis=0)]  # a holds columns of I
        fresh = set(passive) - before
        before = set(passive)
        return np.array([1.0 if not fresh or i in fresh else -1.0 for i in passive]), None, None, None

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    with pytest.raises(NumericalError) as info:
        cone_project(np.ones(2), np.eye(2), np.eye(2))
    assert str(info.value) == "cone projection did not converge (J=2, rows=2)"
