import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from npivtest.basis import BasisSpec, ConstraintMatrix, deriv_constraints, eval_design, min_dim, tensor_design, zeta
from npivtest.errors import InputError

from oracles import _max_support_count, bspline_design_dense, bspline_design_rowmajor, simpson, tensor_design_einsum


def bspline(dim, order=3, **kw):
    return BasisSpec("bspline", dim, order, **kw)


def test_spec_validation():
    with pytest.raises(InputError):
        BasisSpec("bspline", 2, 3)  # dim below order
    with pytest.raises(InputError):
        BasisSpec("power", 0)
    with pytest.raises(InputError):
        BasisSpec("fourier", 3)
    with pytest.raises(InputError):
        BasisSpec("bspline", 4, 3, support=(1.0, 0.0))


def test_bernstein_no_interior_knots():
    spec = bspline(3)
    x = np.array([0.0, 0.25, 0.5, 1.0])
    design = eval_design(spec, x)
    expected = np.column_stack([(1 - x) ** 2, 2 * x * (1 - x), x**2])
    np.testing.assert_allclose(design, expected, atol=1e-12)


def test_power_row():
    design = eval_design(BasisSpec("power", 3), np.array([0.5]))
    np.testing.assert_allclose(design, [[1.0, 0.5, 0.25]], atol=1e-15)


def test_cosine_normalization():
    spec = BasisSpec("cosine", 4)
    design = eval_design(spec, np.array([0.0]))
    np.testing.assert_allclose(design[0, :2], [1.0, np.sqrt(2.0)], atol=1e-12)
    # each column integrates to 1 in square over [0, 1]
    for j in range(4):
        val = simpson(lambda xs, j=j: eval_design(spec, xs)[:, j] ** 2, 0.0, 1.0, 4001)
        assert val == pytest.approx(1.0, abs=1e-8)


@given(
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=500),
)
def test_bspline_partition_of_unity(extra, order, xseed):
    dim = order + extra
    spec = bspline(dim, order)
    xs = np.random.default_rng(xseed).uniform(0.0, 1.0, size=23)
    xs = np.concatenate([xs, [0.0, 1.0]])
    sums = eval_design(spec, xs).sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("knot_rule", ["equispaced", "quantile"])
def test_bspline_kernel_matches_dense_recursion(order, knot_rule):
    rng = np.random.default_rng(order)
    data = rng.beta(2.0, 3.0, size=400)
    for dim in range(order, 33):
        spec = bspline(dim, order, support=(-1.0, 2.0), knot_rule=knot_rule, knot_data=3.0 * data - 1.0)
        t = spec.knot_vector()
        inside = np.concatenate([rng.uniform(-1.0, 2.0, size=50), spec.interior_knots(), [-1.0, 2.0]])
        outside = np.array([-3.0, -1.0 - 1e-12, 2.0 + 1e-12, 7.5])
        for deriv in range(order + 1):
            np.testing.assert_allclose(eval_design(spec, inside, deriv=deriv),
                                       bspline_design_dense(inside, t, order, deriv), rtol=0, atol=1e-14)
            clamped = eval_design(spec, outside, deriv=deriv)
            np.testing.assert_allclose(clamped, bspline_design_dense(np.clip(outside, -1.0, 2.0), t, order, deriv),
                                       rtol=0, atol=1e-14)


@given(
    st.integers(min_value=2, max_value=4),
    st.sampled_from(["equispaced", "quantile"]),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=20, max_value=300),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_bspline_gram_is_bounded_by_support_counts(order, knot_rule, n_interior, n, seed):
    # Gershgorin: row j of B'B/n sums to (1/n) sum_i B_j(x_i) <= N_j / n, as B >= 0 has unit row sums
    gen = np.random.default_rng(seed)
    spec = bspline(order + n_interior, order, knot_rule=knot_rule, knot_data=gen.uniform(size=100))
    t = spec.knot_vector()
    # a random mix of spread points (some outside the support), points on knots and one tied value
    kinds = gen.multinomial(n, gen.dirichlet(np.ones(3)))
    x = np.concatenate([gen.uniform(-0.2, 1.2, size=kinds[0]), gen.choice(t, size=kinds[1]),
                        np.full(kinds[2], gen.uniform())])
    b = eval_design(spec, x)
    bound = _max_support_count(spec, np.sort(np.clip(x, *spec.support))) / n
    assert np.linalg.eigvalsh(b.T @ b / n)[-1] <= bound * (1.0 + 1e-12)


def test_bspline_local_support():
    spec = bspline(8)
    t = spec.knot_vector()
    xs = np.linspace(0.0, 1.0, 501)
    design = eval_design(spec, xs)
    for j in range(8):
        lo, hi = t[j], t[j + spec.order]
        outside = (xs < lo - 1e-12) | (xs > hi + 1e-12)
        assert np.all(np.abs(design[outside, j]) < 1e-14)


def test_power_reproduces_polynomials(rng):
    xs = rng.uniform(size=60)
    design = eval_design(BasisSpec("power", 4), xs)
    target = xs**2
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    np.testing.assert_allclose(design @ coef, target, atol=1e-10)


@pytest.mark.parametrize("spec", [bspline(4), BasisSpec("cosine", 4), BasisSpec("power", 4)],
                         ids=["bspline", "cosine", "power"])
def test_clamping_is_silent(spec):
    # points outside the support are clamped without a Python warning; a scan's report counts them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        design = eval_design(spec, np.array([-0.5, 0.5, 1.5]))
    np.testing.assert_allclose(design[0], eval_design(spec, np.array([0.0]))[0], atol=1e-13)
    np.testing.assert_allclose(design[2], eval_design(spec, np.array([1.0]))[0], atol=1e-13)
    np.testing.assert_array_equal(design, eval_design(spec, np.array([0.0, 0.5, 1.0])))


def test_quantile_knots():
    data = np.concatenate([np.linspace(0.0, 0.2, 50), np.linspace(0.8, 1.0, 50)])
    spec = bspline(5, knot_rule="quantile", knot_data=data)
    knots = spec.interior_knots()
    assert len(knots) == 2
    assert np.all((knots > 0.0) & (knots < 1.0))
    with pytest.raises(InputError):
        bspline(9, knot_rule="quantile", knot_data=np.full(100, 0.5)).interior_knots()


def test_derivative_matches_finite_differences(rng):
    spec = bspline(7)
    xs = rng.uniform(0.05, 0.95, size=40)
    h = 1e-6
    d1 = eval_design(spec, xs, deriv=1)
    approx = (eval_design(spec, xs + h) - eval_design(spec, xs - h)) / (2 * h)
    np.testing.assert_allclose(d1, approx, atol=1e-5)


@pytest.mark.parametrize("family", ["power", "cosine"])
@pytest.mark.parametrize("deriv", [1, 2])
def test_derivatives_need_a_bspline_basis(family, deriv):
    with pytest.raises(InputError, match="B-spline"):
        eval_design(BasisSpec(family, 4), np.linspace(0.0, 1.0, 5), deriv=deriv)


def test_deriv_constraints_shapes_and_signs():
    spec = bspline(3)
    m_dec = deriv_constraints(spec, "decreasing")
    assert m_dec.rows.shape == (2, 3)  # dim-1 rows
    m_inc = deriv_constraints(spec, "increasing")
    np.testing.assert_allclose(m_inc.rows, -m_dec.rows, atol=1e-14)

    spec6 = bspline(6)
    assert deriv_constraints(spec6, "decreasing").rows.shape == (5, 6)
    assert deriv_constraints(spec6, "concave").rows.shape == (4, 6)  # one per knot interval


def test_deriv_constraints_classify_linear_trend():
    spec = bspline(4)
    xs = np.linspace(0.0, 1.0, 200)
    design = eval_design(spec, xs)
    coef, *_ = np.linalg.lstsq(design, 2.0 * xs + 0.3, rcond=None)
    m_dec = deriv_constraints(spec, "decreasing")
    m_inc = deriv_constraints(spec, "increasing")
    assert np.any(m_dec.rows @ coef > 1e-6)  # increasing function violates decreasing null
    assert np.all(m_inc.rows @ coef <= 1e-8)


def test_deriv_constraints_exact_for_quadratic():
    # M beta <= 0 iff the first derivative is <= 0 everywhere (quadratic splines)
    spec = bspline(6)
    gen = np.random.default_rng(5)
    grid = np.linspace(0.0, 1.0, 1000)
    d1 = eval_design(spec, grid, deriv=1)
    m = deriv_constraints(spec, "decreasing")
    for _ in range(50):
        beta = gen.normal(size=6)
        feasible = np.all(m.rows @ beta <= 1e-12)
        nonincreasing = np.all(d1 @ beta <= 1e-10)
        assert feasible == nonincreasing


def test_deriv_constraints_family_guards():
    with pytest.raises(InputError):
        deriv_constraints(BasisSpec("power", 4), "decreasing")
    with pytest.raises(InputError):
        deriv_constraints(bspline(4), "sideways")
    with pytest.raises(InputError):
        deriv_constraints(BasisSpec("bspline", 4, 2), "convex")  # linear spline has no curvature


def test_tensor_matches_univariate(rng):
    spec = bspline(5)
    xs = rng.uniform(size=17)
    np.testing.assert_allclose(tensor_design([spec], xs), eval_design(spec, xs), atol=1e-14)


def test_tensor_power_expansion():
    specs = [BasisSpec("power", 2), BasisSpec("power", 2)]
    row = tensor_design(specs, np.array([[0.5, 0.5]]))
    np.testing.assert_allclose(row, [[1.0, 0.5, 0.5, 0.25]], atol=1e-15)


def test_tensor_partition_of_unity(rng):
    specs = [bspline(5), bspline(4)]
    x = rng.uniform(size=(31, 2))
    sums = tensor_design(specs, x).sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


@given(
    st.integers(min_value=2, max_value=4),
    st.sampled_from(["equispaced", "quantile"]),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=20, max_value=300),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_tensor_bspline_gram_is_bounded_by_support_counts(order, knot_rule, n_interior, n, seed):
    # a tensor of B-splines has B >= 0 and unit row sums, and column (j1, j2) is supported inside both
    # factors' supports, so lambda_max(B'B/n) <= min_d max_j N_{d,j} / n
    gen = np.random.default_rng(seed)
    # the same rows of both coordinates hold a random mix of spread points (some outside the support),
    # points on knots and one tied value, so the tied rows can make the bound tight
    kinds = gen.multinomial(n, gen.dirichlet(np.ones(3)))
    columns, specs = [], []
    for d in range(2):
        spec = bspline(order + n_interior + d, order, knot_rule=knot_rule, knot_data=gen.uniform(size=100))
        t = spec.knot_vector()
        columns.append(np.concatenate([gen.uniform(-0.2, 1.2, size=kinds[0]), gen.choice(t, size=kinds[1]),
                                       np.full(kinds[2], gen.choice([gen.uniform(), *t]))]))
        specs.append(spec)
    w = np.column_stack(columns)
    b = tensor_design(specs, w)
    bound = min(_max_support_count(spec, np.sort(np.clip(c, *spec.support))) for spec, c in zip(specs, columns)) / n
    lam_max = np.linalg.eigvalsh(b.T @ b / n)[-1]
    assert lam_max <= bound * (1.0 + 1e-12)
    # the column sums of B, the entries of B_1'B_2, bound it too, and no worse than the counts
    factors = [eval_design(spec, np.clip(c, *spec.support)) for spec, c in zip(specs, columns)]
    col_sums = factors[0].T @ factors[1]
    np.testing.assert_allclose(col_sums.reshape(-1), b.sum(axis=0), rtol=1e-12, atol=1e-12)
    assert lam_max <= col_sums.max() / n * (1.0 + 1e-12)
    assert col_sums.max() / n <= bound * (1.0 + 1e-12)


@pytest.mark.parametrize("support", [(0.0, 1.0), (-1.0, 2.0), (0.1, 0.3), (-1e3, 7.0), (-3.7, -1.2)])
def test_equispaced_spans_match_the_searchsorted_kernel(support):
    # the spans of equispaced knots come from arithmetic; at every knot, its neighbouring floats and a fine
    # grid, every design and derivative equals the searchsorted kernel's bit for bit
    lo, hi = support
    for order in (2, 3, 4):
        for dim in range(order, 81):
            spec = bspline(dim, order, support=support)
            knots = spec.interior_knots()
            x = np.concatenate([np.linspace(lo, hi, 1001), knots, np.nextafter(knots, -np.inf),
                                np.nextafter(knots, np.inf), [np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf)]])
            for deriv in range(order):
                expected = bspline_design_rowmajor(x, spec.knot_vector(), order, deriv)
                assert np.array_equal(eval_design(spec, x, deriv=deriv), expected)


@pytest.mark.parametrize("family, order", [("bspline", 3), ("bspline", 4), ("cosine", 0), ("power", 0)])
def test_designs_are_column_major(family, order, rng):
    # each basis function's column is contiguous; a tensor's columns are the einsum products bit for bit
    specs = [BasisSpec(family, 5, max(order, 2)), BasisSpec(family, 4, max(order, 2))]
    w = rng.uniform(size=(200, 2))
    for deriv in range(order + 1 if family == "bspline" else 1):
        assert eval_design(specs[0], w[:, 0], deriv=deriv).flags.f_contiguous
    design = tensor_design(specs, w)
    assert design.flags.f_contiguous
    assert np.array_equal(design, tensor_design_einsum(specs, w))


def test_tensor_dimension_mismatch():
    with pytest.raises(InputError):
        tensor_design([bspline(4), bspline(4)], np.zeros((5, 3)))


def test_zeta_values():
    assert zeta(bspline(9)) == pytest.approx(3.0)
    assert zeta(BasisSpec("power", 4)) == pytest.approx(4.0)
    assert zeta(BasisSpec("cosine", 16)) == pytest.approx(4.0)
    assert zeta(bspline(3), 9) == pytest.approx(3.0)  # a tensor of two 3-dim factors
    assert zeta(BasisSpec("power", 3), 9) == pytest.approx(9.0)


def test_min_dim():
    assert min_dim(bspline(5, order=3)) == 3
    assert min_dim(BasisSpec("cosine", 5)) == 1


@pytest.mark.parametrize("call, message", [
    (lambda: bspline(4, order=1), "order must be an integer >= 2, got 1"),
    (lambda: bspline(4, knot_rule="median"), "unknown knot rule 'median'; expected one of ('equispaced', 'quantile')"),
    (lambda: bspline(4, knot_rule="quantile"), "quantile knot rule requires knot_data"),
    (lambda: eval_design(bspline(4), np.zeros((2, 2))), "eval_design expects scalar or 1-d x, got shape (2, 2)"),
    (lambda: eval_design(bspline(4), [0.5, np.nan]), "evaluation points contain non-finite values"),
    (lambda: eval_design(bspline(4), [0.5], deriv=-1), "derivative order deriv must be an integer >= 0, got -1"),
    (lambda: ConstraintMatrix([[1.0, np.inf]], "custom"), "constraint rows contain non-finite entries"),
    (lambda: ConstraintMatrix([[1.0]], "flat"),
     "unknown constraint kind 'flat'; expected one of ('decreasing', 'increasing', 'convex', 'concave', 'custom')"),
    (lambda: tensor_design([], np.zeros(3)), "specs must be a non-empty list, got []"),
], ids=["order-1", "unknown-knot-rule", "quantile-without-data", "2-d-points", "non-finite-points", "negative-deriv",
        "non-finite-rows", "unknown-constraint-kind", "no-tensor-factor"])
def test_basis_input_guards(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message
