import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import npivtest.linalg as linalg_module
from npivtest.basis import BasisSpec, eval_design, tensor_design
from npivtest.errors import InputError, NumericalError, SingularGramError
from npivtest.linalg import GRAM_FLOOR, frobenius_norm, orthonormal_range, pinv

from oracles import orthonormal_range_svd, sym_inv_sqrt

# pinv returns the singular values of its one SVD; the svd tests read them there


def range_basis(b):
    """The orthonormal basis q @ r of orthonormal_range's triple."""
    q, r, _ = orthonormal_range(b)
    return q @ r


def test_svd_identity():
    _, s = pinv(np.eye(3))
    np.testing.assert_allclose(s, [1.0, 1.0, 1.0])


def test_svd_diagonal():
    _, s = pinv(np.diag([3.0, 2.0, 1.0]))
    np.testing.assert_allclose(s, [3.0, 2.0, 1.0])


def test_svd_rejects_nonfinite():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(InputError):
        pinv(bad)
    with pytest.raises(InputError):
        orthonormal_range(bad)


def test_svd_transpose_same_singular_values(rng):
    a = rng.normal(size=(6, 4))
    s = pinv(a)[1]
    assert np.all(np.diff(s) <= 0)
    assert np.all(s >= 0)
    np.testing.assert_allclose(s, pinv(a.T)[1], atol=1e-12)


def test_pinv_full_rank_inverse():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    np.testing.assert_allclose(pinv(a)[0], np.linalg.inv(a), atol=1e-12)


def test_pinv_zero_matrix():
    np.testing.assert_allclose(pinv(np.zeros((3, 2)))[0], np.zeros((2, 3)))


def test_pinv_rank_one_closed_form(rng):
    u = rng.normal(size=4)
    v = rng.normal(size=3)
    a = np.outer(u, v)
    expected = np.outer(v, u) / (np.dot(u, u) * np.dot(v, v))
    np.testing.assert_allclose(pinv(a)[0], expected, atol=1e-12)


def test_pinv_penrose_identities(rng):
    a = rng.normal(size=(6, 4))
    ap, _ = pinv(a)
    np.testing.assert_allclose(a @ ap @ a, a, atol=1e-8)
    np.testing.assert_allclose(ap @ a @ ap, ap, atol=1e-8)
    np.testing.assert_allclose((a @ ap).T, a @ ap, atol=1e-8)
    np.testing.assert_allclose((ap @ a).T, ap @ a, atol=1e-8)


def test_pinv_involution_well_conditioned(rng):
    a = rng.normal(size=(5, 4))
    np.testing.assert_allclose(pinv(pinv(a)[0])[0], a, atol=1e-8)


def test_pinv_rcond_domain():
    with pytest.raises(InputError):
        pinv(np.eye(2), rcond=1.5)


def test_projection_orthonormal_columns(rng):
    q, _ = np.linalg.qr(rng.normal(size=(6, 3)))
    u = range_basis(q)
    np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(u @ u.T, q @ q.T, atol=1e-12)


def test_projection_mean():
    u = range_basis(np.ones((4, 1)))
    np.testing.assert_allclose(u @ u.T, np.full((4, 4), 0.25), atol=1e-12)


def test_projection_reproduces_range(rng):
    b = rng.normal(size=(8, 3))
    q = range_basis(b)
    np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-10)
    np.testing.assert_allclose(q @ (q.T @ b), b, atol=1e-10)
    assert q.shape[1] == np.linalg.matrix_rank(b)


SWEEP_BASES = {"bspline2": ("bspline", 3), "bspline3": ("bspline", 4), "cosine": ("cosine", 2), "power": ("power", 2)}


def sweep_designs(basis: str, n: int):
    """Instrument designs of one basis at n points: K up to 32, both knot rules, 2-d tensor products."""
    family, order = SWEEP_BASES[basis]
    gen = np.random.default_rng(n)
    w, w2 = gen.uniform(size=n), gen.uniform(size=(n, 2))
    for rule in ("equispaced", "quantile"):
        for k in sorted({order, 4, 5, 6, 8, 12, 16, 24, 32}):
            if k < n:
                yield eval_design(BasisSpec(family, k, order, knot_rule=rule, knot_data=w), w)
        for per_dim in (order, 5):
            specs = [BasisSpec(family, per_dim, order, knot_rule=rule, knot_data=w2[:, i]) for i in range(2)]
            yield tensor_design(specs, w2)


@pytest.mark.parametrize("n", [60, 500, 5000])
@pytest.mark.parametrize("basis", sorted(SWEEP_BASES))
def test_orthonormal_range_matches_svd_oracle(basis, n):
    # the gram path and the SVD span the same space up to a rotation: every column kept,
    # orthonormal columns, same projection as the SVD oracle; a zero or duplicated column,
    # which the oracle would cut, fails the gram rule, as does a design the rule finds singular
    gen = np.random.default_rng(7)
    for b in sweep_designs(basis, n):
        s = np.linalg.svd(b, compute_uv=False)
        cases = [(b, (s[-1] / s[0]) ** 2 <= 1e-12 * b.shape[1]),
                 (np.column_stack([b, np.zeros(n)]), True), (np.column_stack([b, b[:, :1]]), True)]
        for design, rank_deficient in cases:
            if rank_deficient:
                with pytest.raises(SingularGramError, match=rf"^instrument gram B'B is numerically singular "
                                                             rf"\(dim {design.shape[1]}\)$"):
                    orthonormal_range(design)
                continue
            u, oracle = range_basis(design), orthonormal_range_svd(design)
            assert u.shape == oracle.shape == design.shape
            np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), rtol=0, atol=1e-12)
            x = gen.normal(size=(n, 3))
            expected = oracle @ (oracle.T @ x)
            assert np.linalg.norm(u @ (u.T @ x) - expected) <= 1e-12 * np.linalg.norm(expected)


def _count_tall_svds(monkeypatch, n: int) -> dict:
    counter = {"calls": 0}
    original = np.linalg.svd

    def counting(a, *args, **kwargs):
        counter["calls"] += np.shape(a)[0] == n
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return counter


def test_nonfinite_gram_falls_back_to_the_svd(monkeypatch):
    # entries near the overflow threshold make b'b infinite; the SVD still factors b
    b = np.array([[1e200, 0.0], [0.0, 1e200], [1e200, 1e200]])
    tall = _count_tall_svds(monkeypatch, 3)
    with np.errstate(over="ignore"):
        u = range_basis(b)
    assert tall["calls"] == 1
    np.testing.assert_allclose(u.T @ u, np.eye(2), atol=1e-12)


def test_failed_gram_eigh_falls_back_to_the_svd(monkeypatch, rng):
    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    b = rng.normal(size=(40, 4))
    monkeypatch.setattr(np.linalg, "eigh", failing)
    tall = _count_tall_svds(monkeypatch, 40)
    u = range_basis(b)
    assert tall["calls"] == 1
    oracle = orthonormal_range_svd(b)
    np.testing.assert_allclose(u @ u.T, oracle @ oracle.T, atol=1e-12)


def test_lapack_failure_is_a_numerical_error():
    def failing(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    with pytest.raises(NumericalError, match=r"failing failed for \(2, 2\) matrix: Singular matrix"):
        linalg_module._lapack(failing, np.eye(2), np.ones(2))


def test_orthonormal_range_triple(rng):
    # the gram path returns b itself with a K x K factor; the SVD path U_B with r = I;
    # s is b's singular values, descending, either way
    well = eval_design(BasisSpec("bspline", 8, 3), rng.uniform(size=500))
    power = eval_design(BasisSpec("power", 8), rng.uniform(size=500))
    for b, gram in ((well, True), (power, False)):
        q, r, s = orthonormal_range(b)
        assert (q is b) == gram
        assert r.shape == (8, 8) and (gram or np.array_equal(r, np.eye(8)))
        np.testing.assert_allclose(s, np.linalg.svd(b, compute_uv=False), rtol=1e-10)
        assert (s[-1] / s[0]) ** 2 > GRAM_FLOOR if gram else True


# sym_inv_sqrt is the inverse square root of the compute_shat oracle


def test_sym_inv_sqrt_identity():
    np.testing.assert_allclose(sym_inv_sqrt(np.eye(3)), np.eye(3), atol=1e-12)


def test_sym_inv_sqrt_diagonal():
    np.testing.assert_allclose(
        sym_inv_sqrt(np.diag([4.0, 9.0])), np.diag([0.5, 1.0 / 3.0]), atol=1e-12
    )


def test_sym_inv_sqrt_defining_identity(rng):
    a = rng.normal(size=(5, 5))
    g = a.T @ a + 0.1 * np.eye(5)
    h = sym_inv_sqrt(g)
    np.testing.assert_allclose(h @ g @ h, np.eye(5), atol=1e-9)


def test_sym_inv_sqrt_rejects_asymmetric():
    g = np.array([[1.0, 0.5], [0.1, 1.0]])
    with pytest.raises(InputError):
        sym_inv_sqrt(g)


@pytest.mark.parametrize("g", [np.diag([1.0, 0.0]), np.diag([1.0, 1e-13]), np.zeros((2, 2)), -np.eye(2)])
def test_sym_inv_sqrt_rejects_singular_gram(g):
    # no truncation: lambda_min <= rcond * lambda_max is an error naming the gram
    with pytest.raises(NumericalError, match="instrument gram is numerically singular"):
        sym_inv_sqrt(g, "instrument gram")


def test_frobenius_values():
    assert frobenius_norm(np.zeros((3, 3))) == 0.0
    assert frobenius_norm(np.eye(7)) == pytest.approx(np.sqrt(7))
    assert frobenius_norm(np.array([[1.0, 2.0], [3.0, 4.0]])) == pytest.approx(np.sqrt(30.0))


@given(st.integers(min_value=0, max_value=10_000))
def test_frobenius_orthogonal_invariance(seed):
    gen = np.random.default_rng(seed)
    a = gen.normal(size=(4, 4))
    q, _ = np.linalg.qr(gen.normal(size=(4, 4)))
    assert frobenius_norm(q @ a) == pytest.approx(frobenius_norm(a), abs=1e-10)
    assert frobenius_norm(a @ q) == pytest.approx(frobenius_norm(a), abs=1e-10)


def test_a_vector_is_not_a_matrix():
    with pytest.raises(InputError) as info:
        orthonormal_range(np.ones(3))
    assert str(info.value) == "matrix b must be 2-d with at least one row and column, got shape (3,)"
