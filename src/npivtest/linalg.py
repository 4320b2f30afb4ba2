"""Dense matrix kernels used throughout the test machinery.

Thin, contract-checked wrappers around LAPACK (via numpy): truncated
Moore-Penrose pseudo-inverses, orthonormal range bases, and inverse square
roots of positive definite grams. Generalized inverses use a relative
singular-value cutoff; a range basis comes from the K x K gram b'b where that
is well conditioned, and from the thin SVD of b elsewhere.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import InputError, NumericalError

__all__ = [
    "pinv",
    "orthonormal_range",
    "sym_inv_sqrt",
    "frobenius_norm",
    "default_rcond",
]


# Smallest lam_min/lam_max of b'b factored through the gram. The gram basis loses about
# 1e-16 cond(b'b) of orthogonality; at 1e-5 that measured 2.4e-11, at 1e-3 under 4e-13.
GRAM_FLOOR = 1e-3


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


def _lapack(fn, a: np.ndarray, *args, **kwargs):
    """fn(a, ...) for a numpy.linalg routine, with a LAPACK failure mapped to NumericalError."""
    try:
        return fn(a, *args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{fn.__name__} failed for {np.shape(a)} matrix: {exc}") from exc


def pinv(a, rcond: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(Moore-Penrose pseudo-inverse, singular values) of a, from one SVD.

    Singular values at or below rcond * s_max are truncated; the returned
    singular values are all of them, non-increasing, so callers can judge
    the rank without factoring a again.
    """
    a = _as_matrix(a)
    if rcond is None:
        rcond = default_rcond(a.shape)
    if not 0.0 < rcond < 1.0:
        raise InputError(f"rcond must be in (0, 1), got {rcond}")
    u, s, vt = _lapack(np.linalg.svd, a, full_matrices=False)
    cutoff = rcond * s[0]
    inv_s = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (vt.T * inv_s) @ u.T, s


def orthonormal_range(b, rcond: float | None = None) -> np.ndarray:
    """Orthonormal basis (n x r) of the column space of b, rank-truncated at s <= rcond * s_max.

    Where b'b = V diag(lam) V' has lam_min > max(GRAM_FLOOR, rcond^2) lam_max, no column is cut and the
    basis is b V diag(lam)^{-1/2}; otherwise (or for a non-finite b'b or a failed eigh) the thin SVD's U.
    """
    b = _as_matrix(b)
    if rcond is None:
        rcond = default_rcond(b.shape)
    g = b.T @ b
    if np.all(np.isfinite(g)):
        with contextlib.suppress(NumericalError):  # a failed eigh falls through to the SVD
            lam, v = _lapack(np.linalg.eigh, g)
            if lam[0] > max(GRAM_FLOOR, rcond * rcond) * lam[-1]:
                return b @ (v / np.sqrt(lam))
    u, s, _ = _lapack(np.linalg.svd, b, full_matrices=False)
    rank = int(np.sum(s > rcond * s[0]))
    if rank == 0:
        raise NumericalError("matrix has numerical rank zero; no range to project on")
    return u[:, :rank]


def sym_inv_sqrt(g, name: str = "gram") -> np.ndarray:
    """Inverse square root H of a symmetric positive definite gram G, H G H = I.

    Raises NumericalError, naming the gram, when lambda_min <= rcond * lambda_max
    with rcond = default_rcond(G.shape). Inputs with relative asymmetry above
    1e-8 are rejected; below that, G is symmetrized first.
    """
    g = _as_matrix(g, name)
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


def frobenius_norm(a) -> float:
    """sqrt of the sum of squared entries."""
    a = np.asarray(a, dtype=float)
    return float(np.sqrt(np.sum(a * a)))
