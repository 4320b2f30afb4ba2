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
    exactly, by non-negative least squares on the dual (polar) cone of M's
    unit rows, whitened by the fit's own L^{-T}; a KKT check certifies it;
  * parametric: plain 2SLS of a finite-dimensional design on the instrument
    sieve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import ConstraintMatrix
from .errors import InputError, NumericalError, SingularRegressorGramError, _choice, _columns, _instance, _real_floats
from .linalg import _lapack, check_gram, default_rcond, orthonormal_range, pinv

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
_MODEL_KINDS = ("linear", "quadratic")  # the named parametric models, of degree 1 and 2 in x


def _weights(mu, n: int) -> np.ndarray:
    if mu is None:
        return np.ones(n)
    mu = _real_floats(mu, "weights mu")
    if mu.shape != (n,):
        raise InputError(f"weights mu must have shape ({n},), got {mu.shape}")
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
    m_pinv: np.ndarray  # M^+ (J x K), M = U_B' Psi L^{-T}
    q: np.ndarray  # q @ r is an orthonormal basis U_B (n x K) of the instrument design's column space
    r: np.ndarray  # K x K, so r.shape[1] is the instrument dimension K
    s_hat: float  # smallest singular value of M
    warnings: list[str] = field(default_factory=list)

    def coefficients(self, y) -> np.ndarray:
        """beta = L^{-T} M^+ U_B' y, the sieve 2SLS coefficients of outcome y."""
        y = _real_floats(y, "y")
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


def fit_from_design(psi, b, mu=None) -> NpivFit:
    """Factor of a candidate from pre-evaluated design matrices, with its stability measure s_hat.

    With U_B = q r = orthonormal_range(B) and Psi' Omega Psi = V diag(lam) V', L^{-T} = V diag(lam)^{-1/2},
    one SVD of the orthonormalized cross-gram M = U_B' Psi L^{-T} gives s_hat = s_min(M) and M^+, from
    which coefficients(y) = L^{-T} M^+ U_B' y and scaled_map = M^+ U_B' = L'C. A singular B'B is a
    SingularGramError, then a singular Psi' Omega Psi a SingularRegressorGramError; M^+ is cut at 1e-12 n.
    """
    psi, b = _columns(psi, "regressor design Psi", matrix=True), _columns(b, "instrument design B", matrix=True)
    if b.shape[0] != psi.shape[0]:
        raise InputError(f"Psi and B must share the number of rows, got {psi.shape} and {b.shape}")
    n, j_dim, k_dim = psi.shape[0], psi.shape[1], b.shape[1]
    if k_dim < j_dim:
        raise InputError(f"instrument dimension K={k_dim} must be >= regressor dimension J={j_dim}")
    if n <= k_dim:
        raise InputError(f"need n > K, got n={n}, K={k_dim}")
    if not np.all(np.isfinite(psi)):  # orthonormal_range checks b
        raise InputError("regressor design Psi contains non-finite values")
    mu = _weights(mu, n)
    q, r, _ = orthonormal_range(b)
    gram_weighted = psi.T @ (psi * mu[:, None])
    gram_weighted = 0.5 * (gram_weighted + gram_weighted.T)
    lam, v = _lapack(np.linalg.eigh, gram_weighted)
    check_gram(lam[0], lam[-1], j_dim, SingularRegressorGramError, "weighted regressor gram Psi'Omega Psi")
    l_inv_t = v / np.sqrt(lam)
    rcond = default_rcond((n, max(j_dim, k_dim)))
    m_pinv, m_svals = pinv(r.T @ (q.T @ psi) @ l_inv_t, rcond)
    return NpivFit(gram_weighted=gram_weighted, l_inv_t=l_inv_t, m_pinv=m_pinv, q=q, r=r, s_hat=float(m_svals[-1]),
                   warnings=[f"projected regressor design is rank deficient (min/max singular value "
                             f"{m_svals[-1]:.3e}/{m_svals[0]:.3e}); pseudo-inverse truncation applied"]
                   if m_svals[-1] <= rcond * m_svals[0] else [])  # a warning exactly where pinv cut


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


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return rows / np.where(norms > 0.0, norms, 1.0)  # a zero row stays zero


class _Cone:
    """The y-free half of a projection onto {beta : M beta <= 0} in the metric g = T^{-T} T^{-1}, T = t: M's rows
    at unit norm M^, the whitened rows A = T'M^', T and T'g. The structural scan passes its fit's own l_inv_t."""

    def __init__(self, rows: np.ndarray, g: np.ndarray, t: np.ndarray):
        if rows.shape[1] != t.shape[0]:
            raise InputError(f"constraint matrix has dim {rows.shape[1]}, fit has J={t.shape[0]}")
        self.unit = _unit_rows(rows)
        self.a, self.t, self.tg = t.T @ self.unit.T, t, t.T @ g

    def project(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(beta, active_set): beta = v - T A lam, lam >= 0 minimising |A lam - T'g v| (Moreau's decomposition in
        z = T^{-1} beta). The NNLS takes v / |v|, so every tolerance is relative to |v| and no square under- or
        overflows; a row is active where |M^_i beta| <= ACTIVE_TOL |v|. Stationarity holds by construction."""
        scale = math.hypot(*v)
        slack = self.unit @ v
        if np.all(slack <= ACTIVE_TOL * scale):
            return v.copy(), np.flatnonzero(np.abs(slack) <= ACTIVE_TOL * scale)
        u, (j, p) = v / scale, self.a.shape
        lam = _nnls(self.a, self.tg @ u)
        if lam is None:
            raise NumericalError(f"cone projection did not converge (J={j}, rows={p})")
        beta = u - self.t @ (self.a @ lam)
        slack = self.unit @ beta
        active = np.abs(slack) <= ACTIVE_TOL
        # primal and dual feasibility, and complementary slackness: a positive multiplier only on an active row
        if np.any(slack > ACTIVE_TOL) or np.any(lam < 0.0) or np.any((lam > 0.0) & ~active):
            raise NumericalError(f"cone projection failed its KKT check (J={j}, rows={p})")
        return scale * beta, np.flatnonzero(active)


def cone_project(v, g, m):
    """Projection of v onto {beta : M beta <= 0} in the metric induced by SPD g: (beta, active_set), active_set
    indexing the rows that hold with equality. One eigh, g = V diag(lam) V', gives T = V diag(lam)^{-1/2}, and _Cone
    does the rest, as the structural scan does with its fit's own factor. Scaling v by c > 0 scales beta by c; a
    positive row scale changes neither beta nor the active set."""
    v, g = _columns(v, "v", 1), _real_floats(g, "metric g")
    rows = (m if isinstance(m, ConstraintMatrix) else ConstraintMatrix(m, "custom")).rows
    j = v.shape[0]
    if g.shape != (j, j):
        raise InputError(f"metric g must be {j}x{j}, got {g.shape}")
    if rows.shape[1] != j:
        raise InputError(f"constraint rows have {rows.shape[1]} columns, expected {j}")
    g = 0.5 * (g + g.T)
    lam, vecs = _lapack(np.linalg.eigh, g)
    if not lam[0] > 0.0:  # a NaN too
        raise InputError("metric matrix must be symmetric positive definite")
    return _Cone(rows, g, vecs / np.sqrt(lam)).project(v)


def fit_restricted_cone(fit: NpivFit, m: ConstraintMatrix, beta, psi, y) -> RestrictedFit:
    """Project coefficients beta of outcome y onto the constraint cone in fit's weighted-gram norm."""
    fit, m = _instance(fit, NpivFit, "fit"), _instance(m, ConstraintMatrix, "m")
    cone = _Cone(m.rows, fit.gram_weighted, fit.l_inv_t)
    beta, y = _columns(beta, "beta", 1), _columns(y, "y", 1)
    psi = _columns(psi, "regressor design Psi", matrix=True)
    if beta.shape != (m.dim,):
        raise InputError(f"beta must have shape ({m.dim},), got {beta.shape}")
    if psi.shape != (y.shape[0], m.dim):
        raise InputError(f"regressor design Psi must have shape ({y.shape[0]}, {m.dim}), got {psi.shape}")
    beta_r, active = cone.project(beta)
    fitted_r = psi @ beta_r
    return RestrictedFit(beta_r=beta_r, fitted_r=fitted_r, residuals_r=y - fitted_r, active_set=active)


def parametric_design(x, model) -> tuple[np.ndarray, str]:
    """Design matrix for a named parametric null, or a user-supplied one."""
    if isinstance(model, np.ndarray):
        z = _columns(model, "custom design")
        return (z[:, None] if z.ndim == 1 else z), "custom"  # an (n,) design is one column
    x, model = _columns(x, "x"), _choice(model, "parametric model", _MODEL_KINDS)
    if x.ndim != 1:
        raise InputError(f"named model {model!r} expects a scalar regressor; pass a custom design instead")
    columns = [np.ones_like(x), x] if model == "linear" else [np.ones_like(x), x, x**2]
    return np.column_stack(columns), model


def fit_restricted_parametric(y, x, model, q, r) -> RestrictedFit:
    """Null-restricted parametric 2SLS on the instrument sieve.

    q @ r is an orthonormal basis U_B of the instrument design B's column space, as orthonormal_range(B)
    returns it and the caller has already computed: the candidate's factor keeps it as NpivFit.q and .r, and
    the image-space scan factors each B once. Z and y are projected as r'(q'.); B is not factored here.
    """
    y, q, r = _columns(y, "y", 1), _columns(q, "instrument basis q", matrix=True), _columns(r, "factor r", matrix=True)
    z, model_name = parametric_design(x, model)
    if z.shape[0] != y.shape[0]:
        raise InputError("parametric design and y must share the number of rows")
    if q.shape[0] != y.shape[0]:
        raise InputError("instrument basis and y must share the number of rows")
    rcond = default_rcond((q.shape[0], r.shape[1]))
    tz_pinv, svals = pinv(r.T @ (q.T @ z), rcond)
    if svals.size < z.shape[1] or svals[-1] <= rcond * svals[0]:  # pinv's cut would drop a direction
        raise InputError(
            f"parametric design is rank deficient after instrument projection "
            f"(model {model_name!r}, {z.shape[1]} columns, K={r.shape[1]})"
        )
    theta = tz_pinv @ (r.T @ (q.T @ y))
    fitted_r = z @ theta
    return RestrictedFit(beta_r=theta, fitted_r=fitted_r, residuals_r=y - fitted_r, active_set=np.empty(0, dtype=int))
