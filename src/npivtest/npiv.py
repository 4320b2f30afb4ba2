"""Sieve IV estimators.

fit_from_design factors a candidate from its designs (Psi, B) and weights mu
alone: the instrument factor U_B = q r, L^{-T} with L L' = Psi' Omega Psi, the
pseudo-inverse M^+ of the orthonormalized cross-gram M = U_B' Psi L^{-T}, the
stability measure s_hat = s_min(M) and the standardized coefficient operator
L'C, C = [Psi' P_B Psi]^- Psi' P_B, which is the building block of every
downstream statistic. None of it reads the outcome, so a stability-scan step
never touches y; NpivFit.coefficients(y) gives the series two-stage
least-squares coefficients beta = C y of one outcome vector.

Restricted fits come in two kinds:
  * cone: projection of beta onto {M beta <= 0} in the weighted-gram metric,
    exactly, by non-negative least squares on the dual (polar) cone;
  * parametric: plain 2SLS of a finite-dimensional design on the instrument
    sieve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import ConstraintMatrix
from .errors import InputError, NumericalError, SingularGramError, SingularRegressorGramError
from .linalg import _lapack, default_rcond, orthonormal_range, pinv

__all__ = [
    "NpivFit",
    "RestrictedFit",
    "fit_from_design",
    "fit_restricted_cone",
    "fit_restricted_parametric",
    "cone_project",
    "parametric_design",
]

ACTIVE_TOL = 1e-8
NNLS_TOL = 1e-12


def _weights(mu, n: int) -> np.ndarray:
    if mu is None:
        return np.ones(n)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (n,):
        raise InputError(f"weight vector must have shape ({n},), got {mu.shape}")
    if not np.all(np.isfinite(mu)) or np.any(mu < 0):
        raise InputError("weights must be finite and nonnegative")
    if not np.any(mu > 0):
        raise InputError("weights must have at least one positive entry")
    return mu


@dataclass
class NpivFit:
    """Outcome-free factor of a sieve IV candidate: every field is a function of (Psi, B, mu) alone."""

    gram_weighted: np.ndarray  # Psi' Omega Psi = L L'
    l_inv_t: np.ndarray  # L^{-T} (J x J)
    m_pinv: np.ndarray  # M^+ (J x rank), M = U_B' Psi L^{-T}
    q: np.ndarray  # q @ r is an orthonormal basis U_B of the instrument design's column space
    r: np.ndarray
    k_dim: int
    s_hat: float  # smallest singular value of M
    warnings: list[str] = field(default_factory=list)

    def coefficients(self, y) -> np.ndarray:
        """beta = L^{-T} M^+ U_B' y, the sieve 2SLS coefficients of outcome y."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.q.shape[0],):
            raise InputError(f"y must have shape ({self.q.shape[0]},), got {y.shape}")
        if not np.all(np.isfinite(y)):
            raise InputError("y contains non-finite values")
        return self.l_inv_t @ (self.m_pinv @ (self.r.T @ (self.q.T @ y)))

    @property
    def scaled_map(self) -> np.ndarray:
        """L'C = M^+ U_B' (J x n); formed on each access, so a step reading only s_hat never forms it."""
        return (self.m_pinv @ self.r.T) @ self.q.T


@dataclass
class RestrictedFit:
    """Null-restricted fit: cone-projected sieve coefficients or a parametric 2SLS."""

    beta_r: np.ndarray
    fitted_r: np.ndarray
    residuals_r: np.ndarray
    active_set: np.ndarray
    df_consumed: int = 0  # columns of the parametric design, full rank after instrument projection


def fit_from_design(psi, b, mu=None, rcond: float | None = None) -> NpivFit:
    """Factor of a candidate from pre-evaluated design matrices, with its stability measure s_hat.

    With U_B = q r = orthonormal_range(B) and Psi' Omega Psi = V diag(lam) V', L^{-T} = V diag(lam)^{-1/2},
    one SVD of the orthonormalized cross-gram M = U_B' Psi L^{-T} gives s_hat = s_min(M) and M^+, from
    which coefficients(y) = L^{-T} M^+ U_B' y and scaled_map = M^+ U_B' = L'C. A singular B'B is a
    SingularGramError, then a singular Psi' Omega Psi a SingularRegressorGramError.
    """
    psi = np.asarray(psi, dtype=float)
    b = np.asarray(b, dtype=float)
    if psi.ndim != 2 or b.ndim != 2 or b.shape[0] != psi.shape[0]:
        raise InputError(f"Psi and B must be 2-d and share the number of rows, got {psi.shape} and {b.shape}")
    n, j_dim, k_dim = psi.shape[0], psi.shape[1], b.shape[1]
    if k_dim < j_dim:
        raise InputError(f"instrument dimension K={k_dim} must be >= regressor dimension J={j_dim}")
    if n <= k_dim:
        raise InputError(f"need n > K, got n={n}, K={k_dim}")
    if not np.all(np.isfinite(psi)):  # orthonormal_range checks b
        raise InputError("regressor design Psi contains non-finite values")
    mu = _weights(mu, n)
    if rcond is None:
        rcond = default_rcond((n, max(j_dim, k_dim)))
    q, r, s_b = orthonormal_range(b, rcond)
    warnings_list: list[str] = []
    if s_b[-1] ** 2 <= default_rcond((k_dim, k_dim)) * s_b[0] ** 2:
        raise SingularGramError(f"instrument gram B'B is numerically singular (dim {k_dim})")
    if r.shape[1] < k_dim:
        warnings_list.append(f"instrument design is rank deficient: rank {r.shape[1]} < K={k_dim}")
    gram_weighted = psi.T @ (psi * mu[:, None])
    gram_weighted = 0.5 * (gram_weighted + gram_weighted.T)
    lam, v = _lapack(np.linalg.eigh, gram_weighted)
    if lam[0] <= default_rcond((j_dim, j_dim)) * lam[-1]:
        raise SingularRegressorGramError(f"weighted regressor gram Psi'Omega Psi is numerically singular (dim {j_dim})")
    l_inv_t = v / np.sqrt(lam)
    m_pinv, m_svals = pinv(r.T @ (q.T @ psi) @ l_inv_t, rcond)
    if m_svals[-1] <= rcond * m_svals[0]:
        warnings_list.append(
            f"projected regressor design is rank deficient (min/max singular value "
            f"{m_svals[-1]:.3e}/{m_svals[0]:.3e}); pseudo-inverse truncation applied"
        )
    return NpivFit(gram_weighted=gram_weighted, l_inv_t=l_inv_t, m_pinv=m_pinv, q=q, r=r, k_dim=k_dim,
                   s_hat=float(m_svals[-1]), warnings=warnings_list)


def _active_rows(m_rows: np.ndarray, beta: np.ndarray, scale: float) -> np.ndarray:
    """Rows with |m_i beta| <= ACTIVE_TOL * scale * |m_i|, where scale is the norm of the point being projected."""
    tol = ACTIVE_TOL * scale * np.linalg.norm(m_rows, axis=1)
    return np.flatnonzero(np.abs(m_rows @ beta) <= tol)


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Lawson-Hanson: the x >= 0 minimising |a x - b|, or None past the iteration cap.

    The passive columns stay linearly independent, so each inner least-squares
    solve is unique (Lawson & Hanson, Solving Least Squares Problems, 1974,
    ch. 23). A free column enters while its gradient a_j'(b - a x) exceeds
    NNLS_TOL * |a_j| |b|.
    """
    p = a.shape[1]
    x = np.zeros(p)
    passive = np.zeros(p, dtype=bool)
    tol = NNLS_TOL * np.linalg.norm(b) * np.linalg.norm(a, axis=0)

    def solve():
        z = np.zeros(p)
        z[passive] = _lapack(np.linalg.lstsq, a[:, passive], b, rcond=None)[0]
        return z

    for _ in range(3 * p):
        gain = np.where(passive, -np.inf, a.T @ (b - a @ x) - tol)
        t = int(np.argmax(gain))
        if gain[t] <= 0.0:
            return x
        passive[t] = True
        z = solve()
        if z[t] <= 0.0:  # rounding: the best free column cannot enter, so x is optimal
            return x
        while np.any(z[passive] <= 0.0):
            idx = np.flatnonzero(passive & (z <= 0.0))
            ratio = x[idx] / (x[idx] - z[idx])
            k = int(np.argmin(ratio))
            x += ratio[k] * (z - x)
            x[idx[k]] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0
            z = solve()
        x = z
    return None


def cone_project(v, g, m):
    """Projection of v onto {beta : M beta <= 0} in the metric induced by SPD g.

    Returns (beta, active_set) where active_set indexes the constraint rows
    holding with equality at the solution. With g = L L', Moreau's
    decomposition gives beta = v - g^{-1} M' lam, where lam >= 0 is the
    non-negative least-squares solution of |L^{-1} M' lam - L' v| (the
    projection onto the polar cone). Every tolerance is relative to |v|, so
    cone_project(c v) = c cone_project(v) for c > 0.
    """
    v = np.asarray(v, dtype=float)
    g = np.asarray(g, dtype=float)
    rows = m.rows if isinstance(m, ConstraintMatrix) else np.atleast_2d(np.asarray(m, dtype=float))
    j = v.shape[0]
    if g.shape != (j, j):
        raise InputError(f"metric must be {j}x{j}, got {g.shape}")
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


def fit_restricted_cone(fit: NpivFit, m: ConstraintMatrix, beta, psi, y) -> RestrictedFit:
    """Project coefficients beta of outcome y onto the constraint cone in fit's weighted-gram norm."""
    j_dim = fit.gram_weighted.shape[0]
    if m.dim != j_dim:
        raise InputError(f"constraint matrix has dim {m.dim}, fit has J={j_dim}")
    beta_r, active = cone_project(beta, fit.gram_weighted, m)
    fitted_r = psi @ beta_r
    return RestrictedFit(beta_r=beta_r, fitted_r=fitted_r, residuals_r=y - fitted_r, active_set=active)


def parametric_design(x, model) -> tuple[np.ndarray, str]:
    """Design matrix for a named parametric null, or a user-supplied one."""
    if isinstance(model, np.ndarray):
        z = np.asarray(model, dtype=float)
        return (z.reshape(-1, 1) if z.ndim < 2 else z), "custom"  # an (n,) design is one column
    x = np.asarray(x, dtype=float)
    if model in ("linear", "quadratic") and x.ndim != 1:
        raise InputError(f"named model {model!r} expects a scalar regressor; pass a custom design instead")
    if model == "linear":
        return np.column_stack([np.ones_like(x), x]), "linear"
    if model == "quadratic":
        return np.column_stack([np.ones_like(x), x, x**2]), "quadratic"
    raise InputError(f"unknown parametric model {model!r}; expected 'linear', 'quadratic', or a design array")


def fit_restricted_parametric(y, x, model, q, r) -> RestrictedFit:
    """Null-restricted parametric 2SLS on the instrument sieve.

    q @ r is an orthonormal basis U_B of the instrument design B's column space, as orthonormal_range(B)
    returns it and the caller has already computed: the candidate's factor keeps it as NpivFit.q and .r, and
    the image-space scan factors each B once. Z and y are projected as r'(q'.); B is not factored here.
    """
    y = np.asarray(y, dtype=float)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    z, model_name = parametric_design(x, model)
    if z.shape[0] != y.shape[0]:
        raise InputError("parametric design and y must share the number of rows")
    if q.ndim != 2 or q.shape[0] != y.shape[0]:
        raise InputError("instrument basis and y must share the number of rows")
    tz_pinv, svals = pinv(r.T @ (q.T @ z), default_rcond((q.shape[0], r.shape[1])))
    if svals.size < z.shape[1] or svals[-1] <= 1e-10 * svals[0]:
        raise InputError(
            f"parametric design is rank deficient after instrument projection "
            f"(model {model_name!r}, {z.shape[1]} columns, K={r.shape[1]})"
        )
    theta = tz_pinv @ (r.T @ (q.T @ y))
    fitted_r = z @ theta
    return RestrictedFit(
        beta_r=theta,
        fitted_r=fitted_r,
        residuals_r=y - fitted_r,
        active_set=np.empty(0, dtype=int),
        df_consumed=z.shape[1],
    )
