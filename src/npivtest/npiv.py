"""Sieve IV estimators.

fit_from_design computes the series two-stage least-squares coefficients
beta = [Psi' P_B Psi]^- Psi' P_B y and keeps the coefficient operator
C = [Psi' P_B Psi]^- Psi' P_B, which is the building block of every
downstream statistic (the centered quadratic form uses Q = sqrt(n) Psi C).

Restricted fits come in two kinds:
  * cone: projection of beta onto {M beta <= 0} in the weighted-gram metric,
    via a primal active-set QP with finite termination at desk scale;
  * parametric: plain 2SLS of a finite-dimensional design on the instrument
    sieve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import ConstraintMatrix
from .errors import InputError, NumericalError
from .linalg import default_rcond, orthonormal_range, pinv

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
    evals, evecs = np.linalg.eigh(0.5 * (g + g.T))
    evals = np.clip(evals, 0.0, None)
    return evecs * np.sqrt(evals)


@dataclass
class NpivFit:
    """Unrestricted sieve IV fit with its operator pieces."""

    beta: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    gram_weighted: np.ndarray
    coeff_map: np.ndarray  # C (J x n); Q r = sqrt(n) Psi (C r)
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
    kind: str  # 'cone' | 'parametric'
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
    coeff_map = t_pinv @ u_b.T
    beta = coeff_map @ y
    fitted = psi @ beta
    gram_weighted = psi.T @ (psi * mu[:, None])
    gram_weighted = 0.5 * (gram_weighted + gram_weighted.T)
    return NpivFit(
        beta=beta,
        fitted=fitted,
        residuals=y - fitted,
        gram_weighted=gram_weighted,
        coeff_map=coeff_map,
        scaled_map=_psd_factor(gram_weighted).T @ coeff_map,
        u_b=u_b,
        psi=psi,
        y=y,
        mu=mu,
        k_dim=k_dim,
        warnings=warnings_list,
    )


def _active_rows(m_rows: np.ndarray, beta: np.ndarray) -> np.ndarray:
    row_norms = np.linalg.norm(m_rows, axis=1)
    slack = m_rows @ beta
    tol = ACTIVE_TOL * (1.0 + np.linalg.norm(beta) * row_norms)
    return np.flatnonzero(np.abs(slack) <= tol)


def cone_project(v, g, m, rcond: float | None = None, max_iter: int | None = None):
    """Projection of v onto {beta : M beta <= 0} in the metric induced by SPD g.

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
    feas_tol = ACTIVE_TOL * (1.0 + np.linalg.norm(v) * np.maximum(row_norms, 1.0))
    if np.all(rows @ v <= feas_tol):
        return v.copy(), _active_rows(rows, v)

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
                return target, _active_rows(rows, target)
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
        kind="cone",
    )


def parametric_design(x, model) -> tuple[np.ndarray, str]:
    """Design matrix for a named parametric null, or a user-supplied one."""
    if isinstance(model, np.ndarray):
        z = np.atleast_2d(np.asarray(model, dtype=float))
        return z, "custom"
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
        kind="parametric",
        df_consumed=z.shape[1],
    )
