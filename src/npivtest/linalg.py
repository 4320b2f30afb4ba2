"""Dense matrix kernels used throughout the test machinery.

Thin, contract-checked wrappers around LAPACK (via numpy): SVD, truncated
Moore-Penrose pseudo-inverses, orthonormal range bases, and symmetric inverse
square roots. Generalized inverses use a relative singular-value cutoff so
near-singular designs stay well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError

__all__ = [
    "SvdResult",
    "svd",
    "pinv",
    "orthonormal_range",
    "sym_inv_sqrt",
    "frobenius_norm",
    "default_rcond",
]


def default_rcond(shape: tuple[int, int]) -> float:
    """Relative cutoff for discarding singular values / eigenvalues."""
    return 1e-12 * max(shape)


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InputError(f"{name} must be 2-d with at least one row and column, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD A = U diag(s) Vt with s non-increasing and nonnegative."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.vt


def svd(a) -> SvdResult:
    """Thin SVD of a dense matrix.

    Raises NumericalError if the underlying iteration fails to converge.
    """
    a = _as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge for {a.shape} matrix") from exc
    return SvdResult(u=u, s=s, vt=vt)


def pinv(a, rcond: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with relative singular-value truncation."""
    a = _as_matrix(a)
    if rcond is None:
        rcond = default_rcond(a.shape)
    if not 0.0 < rcond < 1.0:
        raise InputError(f"rcond must be in (0, 1), got {rcond}")
    res = svd(a)
    cutoff = rcond * (res.s[0] if res.s.size else 0.0)
    inv_s = np.where(res.s > cutoff, 1.0 / np.where(res.s > cutoff, res.s, 1.0), 0.0)
    return (res.vt.T * inv_s) @ res.u.T


def orthonormal_range(b, rcond: float | None = None) -> np.ndarray:
    """Orthonormal basis (n x r) of the column space of b, rank-truncated."""
    b = _as_matrix(b)
    if rcond is None:
        rcond = default_rcond(b.shape)
    res = svd(b)
    cutoff = rcond * (res.s[0] if res.s.size else 0.0)
    rank = int(np.sum(res.s > cutoff))
    if rank == 0:
        raise NumericalError("matrix has numerical rank zero; no range to project on")
    return res.u[:, :rank]


def sym_inv_sqrt(g, rcond: float | None = None) -> np.ndarray:
    """Inverse square root H of a symmetric PSD matrix, H G H = I on the retained eigenspace.

    Eigenvalues below rcond * lambda_max are truncated. Inputs with relative
    asymmetry above 1e-8 are rejected; below that, G is symmetrized first.
    """
    g = _as_matrix(g, "gram")
    if g.shape[0] != g.shape[1]:
        raise InputError(f"gram must be square, got {g.shape}")
    asym = np.max(np.abs(g - g.T))
    scale = frobenius_norm(g)
    if asym > 1e-8 * max(scale, 1e-300):
        raise InputError(f"matrix is not symmetric: max asymmetry {asym:.3e} vs scale {scale:.3e}")
    g = 0.5 * (g + g.T)
    if rcond is None:
        rcond = default_rcond(g.shape)
    try:
        evals, evecs = np.linalg.eigh(g)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed for {g.shape} gram") from exc
    lam_max = float(evals[-1]) if evals.size else 0.0
    if lam_max <= 0.0:
        raise NumericalError("gram has no positive eigenvalues")
    cutoff = rcond * lam_max
    keep = evals > cutoff
    inv_sqrt = np.where(keep, 1.0 / np.sqrt(np.where(keep, evals, 1.0)), 0.0)
    return (evecs * inv_sqrt) @ evecs.T


def frobenius_norm(a) -> float:
    """sqrt of the sum of squared entries."""
    a = np.asarray(a, dtype=float)
    return float(np.sqrt(np.sum(a * a)))
