"""Independent brute-force oracles the fast implementations are tested against.

Everything here recomputes quantities from their definitions: explicit O(n^2)
double sums, dense projector assembly, subset enumeration for the cone QP,
and hand-coded special functions (series/continued fraction for the
incomplete gamma, math.erf for the normal CDF). Keep these independent of the
production code paths.
"""

from __future__ import annotations

import contextlib
import math
from types import SimpleNamespace

import numpy as np

from npivtest.basis import BasisSpec, ConstraintMatrix, eval_design
from npivtest.dgp import Dataset, h_design2, h_mono, h_quad, h_sin
from npivtest.errors import InputError, NumericalError, SingularGramError, _columns, _real_floats
from npivtest.linalg import GRAM_FLOOR, _lapack, default_rcond, frobenius_norm, pinv
from npivtest.npiv import ACTIVE_TOL, _nnls, _weights
from npivtest.randdist import CovarianceSpec, mvn_sample, std_normal_cdf

_MAX_GAMMA_ITER = 500
_GAMMA_EPS = 1e-15
_QP_ACTIVE_TOL = 1e-8


def gamma_cdf(x: float, a: float) -> float:
    """Regularized lower incomplete gamma P(a, x) via series / continued fraction."""
    if x < 0 or a <= 0:
        raise ValueError("need x >= 0 and a > 0")
    if x == 0.0:
        return 0.0
    log_prefactor = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        # series expansion around zero
        term = 1.0 / a
        total = term
        denom = a
        for _ in range(_MAX_GAMMA_ITER):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * _GAMMA_EPS:
                break
        return min(1.0, math.exp(log_prefactor) * total)
    # Lentz continued fraction for the upper tail Q(a, x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    frac = d
    for i in range(1, _MAX_GAMMA_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        frac *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    upper = math.exp(log_prefactor) * frac
    return max(0.0, 1.0 - upper)


def chisq_cdf(x: float, k: int) -> float:
    return gamma_cdf(x / 2.0, k / 2.0)


def chisq_quantile_bisect(a: float, k: int, tol: float = 1e-12) -> float:
    """Upper-a chi-square quantile by bisection on the hand-coded CDF."""
    target = 1.0 - a
    lo, hi = 0.0, max(8.0 * k, 50.0)
    while chisq_cdf(hi, k) < target:
        hi *= 2.0
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if chisq_cdf(mid, k) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def simpson(f, lo: float, hi: float, n: int = 2001):
    """Composite Simpson rule on an odd number of nodes."""
    if n % 2 == 0:
        n += 1
    xs = np.linspace(lo, hi, n)
    ys = np.asarray(f(xs), dtype=float)
    h = (hi - lo) / (n - 1)
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(h / 3.0 * np.sum(weights * ys))


def dense_projector(b: np.ndarray) -> np.ndarray:
    return b @ np.linalg.pinv(b.T @ b) @ b.T


def orthonormal_range_svd(b, rcond: float | None = None) -> np.ndarray:
    """Orthonormal basis (n x r) of the column space of b, rank-truncated."""
    b = _columns(b, "matrix", matrix=True, finite=True)
    if rcond is None:
        rcond = default_rcond(b.shape)
    u, s, _ = _lapack(np.linalg.svd, b, full_matrices=False)
    rank = int(np.sum(s > rcond * s[0]))
    if rank == 0:
        raise NumericalError("matrix has numerical rank zero; no range to project on")
    return u[:, :rank]


def sym_sqrt(g: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(0.5 * (g + g.T))
    evals = np.clip(evals, 0.0, None)
    return (evecs * np.sqrt(evals)) @ evecs.T


def sym_inv_sqrt_dense(g: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(0.5 * (g + g.T))
    inv = np.where(evals > 1e-12 * evals[-1], 1.0 / np.sqrt(np.clip(evals, 1e-300, None)), 0.0)
    return (evecs * inv) @ evecs.T


def brute_coeffs(y: np.ndarray, psi: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normal-equation 2SLS coefficients assembled with an explicit dense projector."""
    p_b = dense_projector(b)
    return np.linalg.pinv(psi.T @ p_b @ psi) @ (psi.T @ p_b @ y)


def brute_qpsi(psi: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = psi.shape[0]
    p_b = dense_projector(b)
    return math.sqrt(n) * psi @ np.linalg.pinv(psi.T @ p_b @ psi) @ psi.T @ p_b


def brute_D(r: np.ndarray, psi: np.ndarray, b: np.ndarray, mu=None) -> float:
    """Leave-one-out double sum over the explicitly assembled kernel."""
    n = psi.shape[0]
    om = np.ones(n) if mu is None else np.asarray(mu, dtype=float)
    q = brute_qpsi(psi, b)
    kernel = q.T @ np.diag(om) @ q
    total = 0.0
    for i in range(n):
        for ip in range(n):
            if i != ip:
                total += r[i] * r[ip] * kernel[i, ip]
    return total / (n * (n - 1))


def brute_vhat(u: np.ndarray, psi: np.ndarray, b: np.ndarray, mu=None) -> float:
    n = psi.shape[0]
    om = np.ones(n) if mu is None else np.asarray(mu, dtype=float)
    p_b = dense_projector(b)
    gw_half = sym_sqrt(psi.T @ np.diag(om) @ psi)
    core = np.linalg.pinv(psi.T @ p_b @ psi)
    mid = psi.T @ p_b @ np.diag(u**2) @ p_b @ psi
    mat = gw_half @ core @ mid @ core @ gw_half
    return math.sqrt(float(np.sum(mat * mat)))


# compute_D and v as they were while each formed a second J x n array from the map S: S**2 for the leave-one-out
# term and S * u for v. Kept as the bit-for-bit oracles of compute_D and adaptive._vhat_scaling.


def compute_D_squares(s: np.ndarray, r: np.ndarray) -> float:
    t = s @ r
    loo = float(np.sum(r * r * np.sum(s**2, axis=0)))
    return (float(t @ t) - loo) / (r.shape[0] - 1)


def compute_vhat_product(s: np.ndarray, u: np.ndarray) -> float:
    e = s * u[None, :]
    return frobenius_norm(e @ e.T)


def brute_shat(psi: np.ndarray, b: np.ndarray, omega=None) -> float:
    n = psi.shape[0]
    om = np.ones(n) if omega is None else np.asarray(omega, dtype=float)
    gb_half_inv = sym_inv_sqrt_dense(b.T @ b)
    gw_half_inv = sym_inv_sqrt_dense(psi.T @ np.diag(om) @ psi)
    a = gb_half_inv @ (b.T @ psi) @ gw_half_inv
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def brute_image_D(r: np.ndarray, b: np.ndarray) -> float:
    n = b.shape[0]
    kernel = b @ np.linalg.pinv(b.T @ b / n) @ b.T
    total = 0.0
    for i in range(n):
        for ip in range(n):
            if i != ip:
                total += r[i] * r[ip] * kernel[i, ip]
    return total / (n * (n - 1))


def image_vhat_gram(r: np.ndarray, b: np.ndarray) -> float:
    """Image-space v_K as first implemented: ||H B' diag(r^2) B H||_F with H = (B'B)^{-1/2} from eigh."""
    e = (sym_inv_sqrt_dense(b.T @ b) @ b.T) * r[None, :]
    return math.sqrt(float(np.sum((e @ e.T) ** 2)))


def cone_project_enumerate(v: np.ndarray, g: np.ndarray, m: np.ndarray):
    """Exhaustive active-set search: best feasible equality-constrained optimum."""
    n_rows, dim = m.shape
    best_beta, best_obj = None, math.inf

    def objective(beta):
        d = beta - v
        return float(d @ g @ d)

    for mask in range(2**n_rows):
        subset = [i for i in range(n_rows) if mask & (1 << i)]
        if not subset:
            beta = v.copy()
        else:
            m_s = m[subset]
            _, svals, vt = np.linalg.svd(m_s)
            rank = int(np.sum(svals > 1e-12 * (svals[0] if svals.size else 1.0)))
            null_basis = vt[rank:].T
            if null_basis.shape[1] == 0:
                beta = np.zeros(dim)
            else:
                gn = null_basis.T @ g @ null_basis
                t = np.linalg.solve(gn, null_basis.T @ g @ v)
                beta = null_basis @ t
        slack = m @ beta
        if np.all(slack <= 1e-9 * (1.0 + np.abs(slack).max())):
            obj = objective(beta)
            if obj < best_obj - 1e-14:
                best_obj, best_beta = obj, beta
    return best_beta


def _active_rows(m_rows: np.ndarray, beta: np.ndarray, scale: float) -> np.ndarray:
    """Rows with |m_i beta| <= ACTIVE_TOL * scale * |m_i|, where scale is the norm of the point being projected."""
    tol = ACTIVE_TOL * scale * np.linalg.norm(m_rows, axis=1)
    return np.flatnonzero(np.abs(m_rows @ beta) <= tol)


def cone_project_cholesky(v, g, m):
    """Projection of v onto {beta : M beta <= 0} in the metric induced by SPD g.

    The production projection up to the cone factor (one eigh per metric, unit rows and a KKT certificate), kept
    verbatim: it factors g by Cholesky per call and takes the NNLS on the raw rows.

    Returns (beta, active_set) where active_set indexes the constraint rows
    holding with equality at the solution. With g = L L', Moreau's
    decomposition gives beta = v - g^{-1} M' lam, where lam >= 0 is the
    non-negative least-squares solution of |L^{-1} M' lam - L' v| (the
    projection onto the polar cone). Every tolerance is relative to |v|, so
    cone_project(c v) = c cone_project(v) for c > 0.
    """
    v, g = _columns(v, "v", 1), _real_floats(g, "metric g")
    rows = (m if isinstance(m, ConstraintMatrix) else ConstraintMatrix(m, "custom")).rows
    j = v.shape[0]
    if g.shape != (j, j):
        raise InputError(f"metric g must be {j}x{j}, got {g.shape}")
    if rows.shape[1] != j:
        raise InputError(f"constraint rows have {rows.shape[1]} columns, expected {j}")
    try:
        chol = np.linalg.cholesky(0.5 * (g + g.T))
    except np.linalg.LinAlgError as exc:
        raise InputError("metric matrix must be symmetric positive definite") from exc

    scale = float(np.linalg.norm(v))
    if np.all(rows @ v <= ACTIVE_TOL * scale * np.linalg.norm(rows, axis=1)):
        return v.copy(), _active_rows(rows, v, scale)
    a = _lapack(np.linalg.solve, chol, rows.T)
    lam = _nnls(a, chol.T @ v)
    if lam is None:
        raise NumericalError(f"cone projection did not converge (J={j}, rows={rows.shape[0]})")
    beta = v - _lapack(np.linalg.solve, chol.T, a @ lam)
    return beta, _active_rows(rows, beta, scale)


def dykstra_project(v: np.ndarray, g: np.ndarray, m: np.ndarray, iters: int = 5000):
    """Dykstra's alternating projections onto the halfspaces, in the g-metric."""
    g_inv = np.linalg.inv(g)
    beta = v.copy()
    corrections = [np.zeros_like(v) for _ in range(m.shape[0])]
    for _ in range(iters):
        max_move = 0.0
        for i in range(m.shape[0]):
            z = beta + corrections[i]
            row = m[i]
            viol = float(row @ z)
            if viol > 0.0:
                step = viol / float(row @ g_inv @ row)
                new_beta = z - step * (g_inv @ row)
            else:
                new_beta = z
            corrections[i] = z - new_beta
            max_move = max(max_move, float(np.max(np.abs(new_beta - beta))))
            beta = new_beta
        if max_move < 1e-13:
            break
    return beta


def _active_rows_floored(m_rows: np.ndarray, beta: np.ndarray) -> np.ndarray:
    row_norms = np.linalg.norm(m_rows, axis=1)
    slack = m_rows @ beta
    tol = _QP_ACTIVE_TOL * (1.0 + np.linalg.norm(beta) * row_norms)
    return np.flatnonzero(np.abs(slack) <= tol)


def cone_project_active_set(v, g, m, rcond: float | None = None, max_iter: int | None = None):
    """Primal active-set QP projection of v onto {beta : M beta <= 0} in the g-metric.

    The production solver up to the switch to NNLS on the dual, kept
    verbatim: absolute tolerance floors, an lstsq independence test per
    blocking row, and a working-set loop.

    Returns (beta, active_set) where active_set indexes the constraint rows
    holding with equality at the solution. Primal active-set iteration with
    exact KKT solves; raises NumericalError with iteration diagnostics if the
    cap is hit.
    """
    v = np.asarray(v, dtype=float)
    g = np.asarray(g, dtype=float)
    rows = m.rows if isinstance(m, ConstraintMatrix) else np.atleast_2d(np.asarray(m, dtype=float))
    j = v.shape[0]
    if g.shape != (j, j):
        raise InputError(f"metric must be {j}x{j}, got {g.shape}")
    if rows.shape[1] != j:
        raise InputError(f"constraint rows have {rows.shape[1]} columns, expected {j}")
    g = 0.5 * (g + g.T)
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise InputError("metric matrix must be symmetric positive definite") from exc

    def g_solve(rhs):
        z = np.linalg.solve(chol, rhs)
        return np.linalg.solve(chol.T, z)

    n_rows = rows.shape[0]
    if n_rows == 0:
        return v.copy(), np.empty(0, dtype=int)
    row_norms = np.linalg.norm(rows, axis=1)
    feas_tol = _QP_ACTIVE_TOL * (1.0 + np.linalg.norm(v) * np.maximum(row_norms, 1.0))
    if np.all(rows @ v <= feas_tol):
        return v.copy(), _active_rows_floored(rows, v)

    def independent_of(working_rows: np.ndarray, row: np.ndarray) -> bool:
        if working_rows.shape[0] == 0:
            return True
        coef, *_ = np.linalg.lstsq(working_rows.T, row, rcond=None)
        return np.linalg.norm(row - working_rows.T @ coef) > 1e-10 * max(np.linalg.norm(row), 1e-300)

    beta = np.zeros(j)
    working: list[int] = []  # kept linearly independent, so the KKT system stays SPD
    if max_iter is None:
        max_iter = 50 * (j + n_rows + 2)
    for _ in range(max_iter):
        if working:
            m_w = rows[working]
            kkt = m_w @ g_solve(m_w.T)
            lam = np.linalg.solve(kkt, m_w @ v)
            target = v - g_solve(m_w.T @ lam)
        else:
            lam = np.empty(0)
            target = v.copy()
        step = target - beta
        step_norm = np.linalg.norm(step)
        if step_norm <= 1e-12 * (1.0 + np.linalg.norm(target)):
            if lam.size == 0 or np.min(lam) >= -1e-10 * (1.0 + np.max(np.abs(lam), initial=0.0)):
                return target, _active_rows_floored(rows, target)
            working.pop(int(np.argmin(lam)))
            continue
        outside = [i for i in range(n_rows) if i not in working]
        t_step, blocking = 1.0, None
        if outside:
            slack = rows[outside] @ beta
            gain = rows[outside] @ step
            for pos, i in enumerate(outside):
                # rows dependent on the working set cannot genuinely block
                if gain[pos] > 1e-12 * row_norms[i] * step_norm:
                    ti = max(0.0, -slack[pos]) / gain[pos]
                    if ti < t_step - 1e-15 and independent_of(rows[working], rows[i]):
                        t_step, blocking = ti, i
        beta = beta + t_step * step
        if blocking is not None:
            working.append(blocking)
    raise NumericalError(
        f"cone projection did not converge in {max_iter} iterations "
        f"(J={j}, rows={n_rows}, working set {sorted(working)})"
    )


def bspline_design_dense(x: np.ndarray, t: np.ndarray, order: int, deriv: int) -> np.ndarray:
    """All order-`order` B-splines on knot vector t, evaluated (or differentiated) at x."""
    nb = len(t) - order
    if deriv > 0:
        if order == 1:
            return np.zeros((len(x), nb))
        lower = bspline_design_dense(x, t, order - 1, deriv - 1)  # nb + 1 functions
        out = np.zeros((len(x), nb))
        for j in range(nb):
            d1 = t[j + order - 1] - t[j]
            d2 = t[j + order] - t[j + 1]
            if d1 > 0:
                out[:, j] += (order - 1) / d1 * lower[:, j]
            if d2 > 0:
                out[:, j] -= (order - 1) / d2 * lower[:, j + 1]
        return out
    hi = t[-1]
    n1 = len(t) - 1
    b0 = np.zeros((len(x), n1), dtype=bool)
    for j in range(n1):
        if t[j] < t[j + 1]:
            cond = (t[j] <= x) & (x < t[j + 1])
            if t[j + 1] == hi:
                cond = cond | (x == hi)  # right-closed last interval
            b0[:, j] = cond
    b = b0.astype(float)
    for m in range(2, order + 1):
        nxt = np.zeros((len(x), len(t) - m))
        for j in range(len(t) - m):
            d1 = t[j + m - 1] - t[j]
            d2 = t[j + m] - t[j + 1]
            if d1 > 0:
                nxt[:, j] += (x - t[j]) / d1 * b[:, j]
            if d2 > 0:
                nxt[:, j] += (t[j + m] - x) / d2 * b[:, j + 1]
        b = nxt
    return b


# The B-spline kernel and the tensor product as they were before designs became column-major: the kernel
# located each point's knot span by searchsorted and scattered into a row-major n x nb array, and
# the tensor product formed the row-wise products with one einsum per factor. Kept verbatim as the parity oracles
# of basis._bspline_design and basis._tensor_product.


def bspline_design_rowmajor(x: np.ndarray, t: np.ndarray, order: int, deriv: int) -> np.ndarray:
    """All order-`order` B-splines on the clamped knot vector t (or their deriv-th derivative) at x, row-major."""
    nb = len(t) - order
    span = np.clip(np.searchsorted(t[order:nb], x, side="right") + order - 1, order - 1, nb - 1)
    knot = {offset: t[span + offset] for offset in range(2 - order, order)}  # knot[o] = t[s + o]
    vals = [np.ones(len(x))]
    for m in range(2, order + 1):
        gaps = [knot[r + 1] - knot[r - m + 2] for r in range(m - 1)]
        value = m <= order - deriv
        nxt = []
        for r in range(m):
            a = b = None
            if r > 0:
                a = (x - knot[r - m + 1] if value else m - 1) / gaps[r - 1] * vals[r - 1]
            if r < m - 1:
                b = (knot[r + 1] - x if value else 1 - m) / gaps[r] * vals[r]
            nxt.append(b if a is None else a if b is None else a + b)
        vals = nxt
    out = np.zeros((len(x), nb))
    flat = out.reshape(-1)
    first = span + (np.arange(len(x)) * nb - order + 1)  # flat index of each row's first nonzero
    for r, v in enumerate(vals):
        flat[first + r] = v
    return out


def tensor_design_einsum(specs, x) -> np.ndarray:
    """Row-wise tensor product design of the factors eval_design gives, by einsum, row-major."""
    from npivtest.basis import eval_design

    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    design = np.ascontiguousarray(eval_design(specs[0], x[:, 0]))
    for k, spec in enumerate(specs[1:], start=1):
        nxt = eval_design(spec, x[:, k])
        design = np.einsum("ij,ik->ijk", design, nxt).reshape(x.shape[0], -1)
    return design


# The structural candidate pipeline as it was before the fit computed s_hat: compute_shat formed
# B'B, B'Psi and Psi'Omega Psi, two inverse square roots and one SVD, and the fit factored B and
# Psi'Omega Psi again. Kept verbatim (fit_from_design_ub returns the old NpivFit fields, u_b in
# place of (q, r), as a namespace) as the parity oracle of npiv.fit_from_design.


def orthonormal_range_truncating(b, rcond: float | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, r, s): q @ r is an orthonormal basis (n x rank) of b's range, s b's singular values, descending.

    linalg.orthonormal_range as it was before it raised on a singular gram. Where b'b = V diag(lam) V' has
    lam_min > max(GRAM_FLOOR, rcond^2) lam_max, no column is cut and (q, r, s) = (b, V diag(lam)^{-1/2},
    sqrt(lam) descending); otherwise (or for a non-finite b'b or a failed eigh) q is the thin SVD's U
    truncated at s <= rcond * s_max, r = I.
    """
    b = _columns(b, "matrix", matrix=True)
    if rcond is None:
        rcond = default_rcond(b.shape)
    g = b.T @ b
    if np.all(np.isfinite(g)):  # so b is finite: g's diagonal sums the squares of b's columns
        with contextlib.suppress(NumericalError):  # a failed eigh falls through to the SVD
            lam, v = _lapack(np.linalg.eigh, g)
            if lam[0] > max(GRAM_FLOOR, rcond * rcond) * lam[-1]:
                root = np.sqrt(lam)
                return b, v / root, root[::-1]
    b = _columns(b, "matrix", matrix=True, finite=True)  # a finite b whose gram overflows takes the SVD
    u, s, _ = _lapack(np.linalg.svd, b, full_matrices=False)
    rank = int(np.sum(s > rcond * s[0]))
    if rank == 0:
        raise NumericalError("matrix has numerical rank zero; no range to project on")
    return u[:, :rank], np.eye(rank), s


def orthonormal_range_ub(b, rcond: float | None = None) -> np.ndarray:
    """Orthonormal basis (n x r) of the column space of b, rank-truncated at s <= rcond * s_max: the
    truncating kernel's q @ r, b V diag(lam)^{-1/2} on its gram path and the thin SVD's U elsewhere."""
    q, r, _ = orthonormal_range_truncating(b, rcond)
    return q @ r


def sym_inv_sqrt(g, name: str = "gram") -> np.ndarray:
    """Inverse square root H of a symmetric positive definite gram G, H G H = I.

    Raises NumericalError, naming the gram, when lambda_min <= rcond * lambda_max
    with rcond = default_rcond(G.shape). Inputs with relative asymmetry above
    1e-8 are rejected; below that, G is symmetrized first.
    """
    g = _columns(g, name, matrix=True, finite=True)
    if g.shape[0] != g.shape[1]:
        raise InputError(f"{name} must be square, got {g.shape}")
    asym = np.max(np.abs(g - g.T))
    scale = frobenius_norm(g)
    if asym > 1e-8 * max(scale, 1e-300):
        raise InputError(f"{name} is not symmetric: max asymmetry {asym:.3e} vs scale {scale:.3e}")
    evals, evecs = _lapack(np.linalg.eigh, 0.5 * (g + g.T))
    if evals[-1] <= 0 or evals[0] <= default_rcond(g.shape) * evals[-1]:
        raise NumericalError(f"{name} is numerically singular (dim {g.shape[0]})")
    return (evecs * (1.0 / np.sqrt(evals))) @ evecs.T


def _psd_factor(g: np.ndarray) -> np.ndarray:
    """Square factor L with L L' = g for symmetric PSD g (eigh-based, rank-safe)."""
    evals, evecs = _lapack(np.linalg.eigh, 0.5 * (g + g.T))
    evals = np.clip(evals, 0.0, None)
    return evecs * np.sqrt(evals)


def fit_from_design_ub(y, psi, b, mu=None, rcond: float | None = None) -> SimpleNamespace:
    """Unrestricted fit from pre-evaluated design matrices."""
    y = np.asarray(y, dtype=float)
    psi = np.asarray(psi, dtype=float)
    b = np.asarray(b, dtype=float)
    n = y.shape[0]
    if y.ndim != 1:
        raise InputError(f"y must be 1-d, got shape {y.shape}")
    if psi.shape[0] != n or b.shape[0] != n:
        raise InputError("y, Psi, B must share the number of rows")
    j_dim, k_dim = psi.shape[1], b.shape[1]
    if k_dim < j_dim:
        raise InputError(f"instrument dimension K={k_dim} must be >= regressor dimension J={j_dim}")
    if n <= k_dim:
        raise InputError(f"need n > K, got n={n}, K={k_dim}")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(psi)) and np.all(np.isfinite(b))):
        raise InputError("data or design matrices contain non-finite values")
    mu = _weights(mu, n)
    if rcond is None:
        rcond = default_rcond((n, max(j_dim, k_dim)))

    warnings_list: list[str] = []
    u_b = orthonormal_range_ub(b, rcond)
    if u_b.shape[1] < k_dim:
        warnings_list.append(f"instrument design is rank deficient: rank {u_b.shape[1]} < K={k_dim}")
    t_pinv, t_svals = pinv(u_b.T @ psi, rcond)
    if t_svals[-1] <= rcond * t_svals[0]:
        warnings_list.append(
            f"projected regressor design is rank deficient (min/max singular value "
            f"{t_svals[-1]:.3e}/{t_svals[0]:.3e}); pseudo-inverse truncation applied"
        )
    beta = t_pinv @ (u_b.T @ y)
    fitted = psi @ beta
    gram_weighted = psi.T @ (psi * mu[:, None])
    gram_weighted = 0.5 * (gram_weighted + gram_weighted.T)
    return SimpleNamespace(
        beta=beta,
        fitted=fitted,
        residuals=y - fitted,
        gram_weighted=gram_weighted,
        scaled_map=(_psd_factor(gram_weighted).T @ t_pinv) @ u_b.T,
        u_b=u_b,
        psi=psi,
        y=y,
        mu=mu,
        k_dim=k_dim,
        warnings=warnings_list,
    )


# The structural fit as it was before it was split at y: fit_from_design(y, psi, b, mu, rcond) factored
# the candidate and computed beta, the fitted values and the residuals of y in one call. Kept verbatim
# (returning the old NpivFit fields as a namespace) as the parity oracle of npiv.fit_from_design and
# NpivFit.coefficients, whose arithmetic must match it bit for bit.


def fit_from_design_joint(y, psi, b, mu=None, rcond: float | None = None) -> SimpleNamespace:
    """Unrestricted fit from pre-evaluated design matrices, with its stability measure s_hat."""
    y = np.asarray(y, dtype=float)
    psi = np.asarray(psi, dtype=float)
    b = np.asarray(b, dtype=float)
    n = y.shape[0]
    if y.ndim != 1:
        raise InputError(f"y must be 1-d, got shape {y.shape}")
    if psi.shape[0] != n or b.shape[0] != n:
        raise InputError("y, Psi, B must share the number of rows")
    j_dim, k_dim = psi.shape[1], b.shape[1]
    if k_dim < j_dim:
        raise InputError(f"instrument dimension K={k_dim} must be >= regressor dimension J={j_dim}")
    if n <= k_dim:
        raise InputError(f"need n > K, got n={n}, K={k_dim}")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(psi))):  # orthonormal_range_truncating checks b
        raise InputError("data or design matrices contain non-finite values")
    mu = _weights(mu, n)
    if rcond is None:
        rcond = default_rcond((n, max(j_dim, k_dim)))

    warnings_list: list[str] = []
    q, r, s_b = orthonormal_range_truncating(b, rcond)
    if s_b[-1] ** 2 <= default_rcond((k_dim, k_dim)) * s_b[0] ** 2:
        raise SingularGramError(f"instrument gram B'B is numerically singular (dim {k_dim})")
    if r.shape[1] < k_dim:
        warnings_list.append(f"instrument design is rank deficient: rank {r.shape[1]} < K={k_dim}")
    gram_weighted = psi.T @ (psi * mu[:, None])
    gram_weighted = 0.5 * (gram_weighted + gram_weighted.T)
    lam, v = _lapack(np.linalg.eigh, gram_weighted)
    if lam[0] <= default_rcond((j_dim, j_dim)) * lam[-1]:
        raise NumericalError(f"weighted regressor gram Psi'Omega Psi is numerically singular (dim {j_dim})")
    l_inv_t = v / np.sqrt(lam)
    m_pinv, m_svals = pinv(r.T @ (q.T @ psi) @ l_inv_t, rcond)
    if m_svals[-1] <= rcond * m_svals[0]:
        warnings_list.append(
            f"projected regressor design is rank deficient (min/max singular value "
            f"{m_svals[-1]:.3e}/{m_svals[0]:.3e}); pseudo-inverse truncation applied"
        )
    beta = l_inv_t @ (m_pinv @ (r.T @ (q.T @ y)))
    fitted = psi @ beta
    scaled_map_k = m_pinv @ r.T
    return SimpleNamespace(
        beta=beta,
        fitted=fitted,
        residuals=y - fitted,
        gram_weighted=gram_weighted,
        scaled_map_k=scaled_map_k,
        scaled_map=scaled_map_k @ q.T,
        q=q,
        r=r,
        psi=psi,
        y=y,
        mu=mu,
        k_dim=k_dim,
        s_hat=float(m_svals[-1]),
        warnings=warnings_list,
    )


def compute_shat(psi, b, omega=None) -> float:
    """Minimal singular value of the orthonormalized cross-gram (B'B)^{-1/2} B'Psi (Psi'O Psi)^{-1/2}."""
    psi = np.asarray(psi, dtype=float)
    b = np.asarray(b, dtype=float)
    if psi.shape[0] != b.shape[0]:
        raise InputError("Psi and B must share the number of rows")
    n = psi.shape[0]
    om = _weights(omega, n)
    hb = sym_inv_sqrt(b.T @ b / n, "instrument gram B'B")
    hw = sym_inv_sqrt(psi.T @ (psi * om[:, None]) / n, "weighted regressor gram Psi'Omega Psi")
    a = hb @ (b.T @ psi / n) @ hw
    svals = _lapack(np.linalg.svd, a, compute_uv=False)
    return float(svals[-1])


# basis._max_support_count counted one B-spline design's supports per call. Kept as the oracle of the
# image-space stability step's knot-interval counts and of the Gershgorin bounds: it searches a knot vector
# from the left and from the right, where the step searches the vector and its next floats in one call.


def _max_support_count(spec: BasisSpec, x_sorted: np.ndarray) -> int:
    """max_j N_j, N_j the number of the sorted points x_sorted in the support [t_j, t_{j+order}] of B-spline j.

    A B-spline design B at points inside the support has B >= 0 and rows summing to one, so by Gershgorin
    lambda_max(B'B/n) <= max_j (1/n) sum_i B_j(x_i) <= max_j N_j / n; it is counted from the knot vector
    without building B. Clamp the points to the support before sorting them.
    """
    t = spec.knot_vector()
    first, last = np.searchsorted(x_sorted, t, "left"), np.searchsorted(x_sorted, t, "right")
    return int(np.max(last[spec.order :] - first[: -spec.order]))


# RunConfig.instrument_dim and the per-coordinate dimension as they were before the integer search: a float
# d_w-th root, rounded up and corrected upwards, and its per_dim recovered by rounding the root of the dim.
# Kept as the oracle of RunConfig.instrument_dim and instrument_per_dim.


def instrument_dims_float_root(config, k_target: int, d_w: int) -> tuple[int, int]:
    """(realized dim, per_dim) of the instrument design for k_target by the float root."""
    base = max(k_target, config.basis_min())
    per_dim = max(config.basis_min(), math.ceil(base ** (1.0 / d_w)))
    while per_dim**d_w < base:
        per_dim += 1
    return per_dim**d_w, round((per_dim**d_w) ** (1.0 / d_w))


def instrument_design(config, k_target: int, w: np.ndarray):
    """(specs, B): config.instrument_specs(k_target, w) and the instrument design B they span at w. A 2-d w's B is
    the column-major copy of tensor_design_einsum's product of per-coordinate eval_designs, apart from the scans'
    _Designs and basis._tensor_product."""
    specs = config.instrument_specs(k_target, w.reshape(len(w), -1))  # the specs read w as n x d_w
    return specs, eval_design(specs[0], w) if w.ndim == 1 else np.asfortranarray(tensor_design_einsum(specs, w))


def image_space_step_dense(config, designs, n: int, k_min: int):
    """The image-space stability step that builds every design, a drop-in for adaptive._image_space_step.

    step(k) builds the instrument design B for k, forms B'B/n and returns (dim, noise, s_K, B) with
    s_K = lambda_max(B'B/n)^{-1/2} from one eigvalsh; a step whose realized dim repeats the last one
    returns that step unchanged.
    """
    from npivtest.adaptive import _noise_level

    w = designs.w
    d_w = 1 if w.ndim == 1 else w.shape[1]
    last: dict[int, tuple] = {}

    def step(k: int):
        dim = config.instrument_dim(k, d_w)
        if dim in last:
            return last[dim]
        last.clear()
        specs, b = instrument_design(config, k, w)
        gb = b.T @ b / n
        evals = _lapack(np.linalg.eigvalsh, 0.5 * (gb + gb.T))
        if evals[-1] <= 0:
            raise NumericalError("instrument gram B'B is numerically singular")
        last[dim] = (b.shape[1], _noise_level(specs[0], b.shape[1], n), 1.0 / math.sqrt(float(evals[-1])), b)
        return last[dim]

    return step


def image_space_step_knot_counts(config, designs, n: int, k_min: int):
    """The image-space stability step that certifies from knot-interval counts alone, a drop-in for
    adaptive._image_space_step: a B-spline step (1-d or tensor) whose noise level stays below
    sqrt(n / min_d max_j N_{d,j}) returns (dim, noise, None, None); every other step builds B, forms B'B/n
    and returns (dim, noise, s_K, B) from one eigvalsh. A step whose realized dim repeats the last one
    returns that step unchanged.
    """
    from npivtest.adaptive import _noise_level

    w = designs.w
    columns = [w] if w.ndim == 1 else list(w.T)
    w_sorted = [np.sort(np.clip(c, *config.support)) for c in columns] if config.family == "bspline" else None
    last: dict[int, tuple] = {}

    def step(k: int):
        dim = config.instrument_dim(k, len(columns))
        if dim in last:
            return last[dim]
        last.clear()
        if w_sorted is not None:
            specs = config.instrument_specs(k, w)
            noise = _noise_level(specs[0], dim, n)
            count = min(_max_support_count(spec, x) for spec, x in zip(specs, w_sorted))
            if noise < math.sqrt(n / count) * (1.0 - 1e-9):
                last[dim] = (dim, noise, None, None)
                return last[dim]
        specs, b = instrument_design(config, k, w)
        gb = b.T @ b / n
        evals = _lapack(np.linalg.eigvalsh, 0.5 * (gb + gb.T))
        if evals[-1] <= 0:
            raise NumericalError("instrument gram B'B is numerically singular")
        last[dim] = (b.shape[1], _noise_level(specs[0], b.shape[1], n), 1.0 / math.sqrt(float(evals[-1])), b)
        return last[dim]

    return step


def image_space_statistics_basis(q: np.ndarray, r_b: np.ndarray, r: np.ndarray) -> tuple[float, float]:
    """The image-space (D_K, v_K) as computed before the K x K gram, a drop-in for
    adaptive._image_space_statistics: the n x K orthonormal basis U_B = q r_b is formed and S = U_B'
    is passed to compute_D and compute_vhat_product."""
    from npivtest.adaptive import compute_D

    s = (q @ r_b).T
    return compute_D(s, r), compute_vhat_product(s, r)


# The three simulation generators as they were before dgp.draw/generate; generate must match them bit for bit.


def eval_h(h, x):
    if h.family == "mono":
        return h_mono(h.c0, x)
    if h.family == "sin":
        return h_sin(h.c_a, h.c_b, x)
    if h.family == "design2":
        return h_design2(h.c_a, x)
    return h_quad(h.c_a, x)


def design1_cov(xi: float) -> np.ndarray:
    return np.array([[1.0, xi, 0.3], [xi, 1.0, 0.0], [0.3, 0.0, 1.0]])


def multivariate_cov(xi: float) -> np.ndarray:
    return np.array(
        [
            [1.0, xi, 0.4, 0.3],
            [xi, 1.0, 0.0, 0.0],
            [0.4, 0.0, 1.0, 0.0],
            [0.3, 0.0, 0.0, 1.0],
        ]
    )


def gen_design1(cfg):
    if cfg.design != "I":
        raise InputError(f"gen_design1 needs design 'I', got {cfg.design!r}")
    draws = mvn_sample(CovarianceSpec(design1_cov(cfg.xi)), cfg.rng, cfg.n)
    x_star, w_star, u = draws[:, 0], draws[:, 1], draws[:, 2]
    x = std_normal_cdf(x_star)
    w = std_normal_cdf(w_star)
    y = eval_h(cfg.h_spec, x) + u
    return Dataset(y=y, x=x, w=w, config=cfg)


def gen_design2(cfg):
    if cfg.design != "II":
        raise InputError(f"gen_design2 needs design 'II', got {cfg.design!r}")
    gen = cfg.rng.generator()
    z = gen.standard_normal((cfg.n, 3))
    w_star, eps, nu = z[:, 0], z[:, 1], z[:, 2]
    w = std_normal_cdf(w_star)
    x = std_normal_cdf(cfg.xi * w_star + math.sqrt(1.0 - cfg.xi**2) * eps)
    u = (0.3 * eps + math.sqrt(1.0 - 0.09) * nu) / 2.0
    y = eval_h(cfg.h_spec, x) + u
    return Dataset(y=y, x=x, w=w, config=cfg)


def gen_multivariate(cfg):
    if cfg.design != "multivariate":
        raise InputError(f"gen_multivariate needs design 'multivariate', got {cfg.design!r}")
    draws = mvn_sample(CovarianceSpec(multivariate_cov(cfg.xi)), cfg.rng, cfg.n)
    x = std_normal_cdf(draws[:, 0])
    w = std_normal_cdf(draws[:, 1:3])
    y = eval_h(cfg.h_spec, x) + draws[:, 3]
    return Dataset(y=y, x=x, w=w, config=cfg)
