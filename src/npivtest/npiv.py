"""Sieve IV estimators.

fit_from_design computes the series two-stage least-squares coefficients
beta = [Psi' P_B Psi]^- Psi' P_B y and keeps the standardized coefficient
operator L'C, with C = [Psi' P_B Psi]^- Psi' P_B and L L' = Psi' Omega Psi,
which is the building block of every downstream statistic.

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
from .errors import InputError, NumericalError
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
    return mu


def _psd_factor(g: np.ndarray) -> np.ndarray:
    """Square factor L with L L' = g for symmetric PSD g (eigh-based, rank-safe)."""
    evals, evecs = _lapack(np.linalg.eigh, 0.5 * (g + g.T))
    evals = np.clip(evals, 0.0, None)
    return evecs * np.sqrt(evals)


@dataclass
class NpivFit:
    """Unrestricted sieve IV fit with its operator pieces."""

    beta: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    gram_weighted: np.ndarray
    scaled_map: np.ndarray  # L' C with L L' = Psi' Omega Psi; rows of the standardized coefficient operator
    u_b: np.ndarray  # orthonormal basis of the instrument design's column space
    psi: np.ndarray
    y: np.ndarray
    mu: np.ndarray
    k_dim: int
    warnings: list[str] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.psi.shape[0]

    @property
    def j_dim(self) -> int:
        return self.psi.shape[1]


@dataclass
class RestrictedFit:
    """Null-restricted fit: cone-projected sieve coefficients or a parametric 2SLS."""

    beta_r: np.ndarray
    fitted_r: np.ndarray
    residuals_r: np.ndarray
    active_set: np.ndarray
    df_consumed: int = 0  # columns of the parametric design, full rank after instrument projection


def fit_from_design(y, psi, b, mu=None, rcond: float | None = None) -> NpivFit:
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
    u_b = orthonormal_range(b, rcond)
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
    return NpivFit(
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


def fit_restricted_cone(fit: NpivFit, m: ConstraintMatrix) -> RestrictedFit:
    """Project the unrestricted coefficients onto the constraint cone in the weighted norm."""
    if m.dim != fit.j_dim:
        raise InputError(f"constraint matrix has dim {m.dim}, fit has J={fit.j_dim}")
    beta_r, active = cone_project(fit.beta, fit.gram_weighted, m)
    fitted_r = fit.psi @ beta_r
    return RestrictedFit(
        beta_r=beta_r,
        fitted_r=fitted_r,
        residuals_r=fit.y - fitted_r,
        active_set=active,
    )


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


def fit_restricted_parametric(y, x, model, u_b, rcond: float | None = None) -> RestrictedFit:
    """Null-restricted parametric 2SLS on the instrument sieve.

    u_b is an orthonormal basis of the instrument design B's column space,
    orthonormal_range(B), which the caller has already computed: the
    unrestricted fit keeps it as NpivFit.u_b, and the image-space scan factors
    each B once. B itself is neither evaluated nor factored here.
    """
    y = np.asarray(y, dtype=float)
    u_b = np.asarray(u_b, dtype=float)
    z, model_name = parametric_design(x, model)
    if z.shape[0] != y.shape[0]:
        raise InputError("parametric design and y must share the number of rows")
    if u_b.ndim != 2 or u_b.shape[0] != y.shape[0]:
        raise InputError("instrument basis and y must share the number of rows")
    if rcond is None:
        rcond = default_rcond(u_b.shape)
    tz_pinv, svals = pinv(u_b.T @ z, rcond)
    if svals.size < z.shape[1] or svals[-1] <= 1e-10 * svals[0]:
        raise InputError(
            f"parametric design is rank deficient after instrument projection "
            f"(model {model_name!r}, {z.shape[1]} columns, K={u_b.shape[1]})"
        )
    theta = tz_pinv @ (u_b.T @ y)
    fitted_r = z @ theta
    return RestrictedFit(
        beta_r=theta,
        fitted_r=fitted_r,
        residuals_r=y - fitted_r,
        active_set=np.empty(0, dtype=int),
        df_consumed=z.shape[1],
    )
