"""Dense matrix kernels used throughout the test machinery.

Thin, contract-checked wrappers around LAPACK (via numpy): truncated
Moore-Penrose pseudo-inverses, full-rank orthonormal range bases and the
singular-gram rule. Generalized inverses use a relative singular-value cutoff;
a range basis comes from the K x K gram b'b where that is well conditioned,
and from the thin SVD of b elsewhere.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import InputError, NumericalError, SingularGramError, _columns, _instance, _number, _sequence

__all__ = [
    "pinv",
    "orthonormal_range",
    "frobenius_norm",
    "default_rcond",
    "check_gram",
]


# Smallest lam_min/lam_max of b'b factored through the gram. The gram basis loses about
# 1e-16 cond(b'b) of orthogonality; at 1e-5 that measured 2.4e-11, at 1e-3 under 4e-13.
GRAM_FLOOR = 1e-3


def default_rcond(shape: tuple[int, int]) -> float:
    """Relative cutoff for discarding singular values / eigenvalues."""
    return 1e-12 * max(_number(size, "shape entry", 1, integer=True) for size in _sequence(shape, "shape"))


def check_gram(lam_min: float, lam_max: float, dim: int, error: type[NumericalError], name: str) -> None:
    """The singular-gram rule: raise error, naming the dim x dim gram, when lam_min <= 1e-12 dim lam_max."""
    lam_min, lam_max = _number(lam_min, "lam_min", finite=False), _number(lam_max, "lam_max", finite=False)
    dim, name = _number(dim, "dim", 1, integer=True), _instance(name, str, "name")
    if not issubclass(_instance(error, type, "error"), NumericalError):
        raise InputError(f"error must be a NumericalError class, got {error.__name__}")
    if lam_min <= default_rcond((dim, dim)) * lam_max:
        raise error(f"{name} is numerically singular (dim {dim})")


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
    a = _columns(a, "matrix a", matrix=True, finite=True)
    rcond = default_rcond(a.shape) if rcond is None else _number(rcond, "rcond", 0, 1)
    u, s, vt = _lapack(np.linalg.svd, a, full_matrices=False)
    cutoff = rcond * s[0]
    inv_s = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (vt.T * inv_s) @ u.T, s


def orthonormal_range(b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, r, s): q @ r is an orthonormal basis (n x K) of b's range, s b's singular values, descending.

    A b whose gram fails check_gram is a SingularGramError, so no column is cut. Where b'b = V diag(lam) V'
    has lam_min > GRAM_FLOOR lam_max, (q, r, s) = (b, V diag(lam)^{-1/2}, sqrt(lam) descending), so no
    n x K basis is formed; otherwise (or for a non-finite b'b or a failed eigh) q is the thin SVD's U, r = I.
    """
    b = _columns(b, "matrix b", matrix=True)
    g = b.T @ b
    if np.all(np.isfinite(g)):  # so b is finite: g's diagonal sums the squares of b's columns
        with contextlib.suppress(NumericalError):  # a failed eigh falls through to the SVD
            lam, v = _lapack(np.linalg.eigh, g)
            if lam[0] > GRAM_FLOOR * lam[-1]:  # which passes check_gram while K < 1e9
                root = np.sqrt(lam)
                return b, v / root, root[::-1]
    b = _columns(b, "matrix b", matrix=True, finite=True)  # a finite b whose gram overflows takes the SVD
    u, s, _ = _lapack(np.linalg.svd, b, full_matrices=False)
    # b'b's spectrum scaled to lam_max = 1, so a gram that overflows is judged too; n < K leaves b'b singular
    lam_min = (s[-1] / s[0]) ** 2 if s[0] > 0 and s.size == b.shape[1] else 0.0
    check_gram(lam_min, 1.0, b.shape[1], SingularGramError, "instrument gram B'B")
    return u, np.eye(b.shape[1]), s


def frobenius_norm(a) -> float:
    """sqrt of the sum of squared entries.

    a is scaled by the exact power of two that brings max|a| into [0.5, 1) before squaring, so entries
    whose squares leave the float range (a residual sandwich's entries are squares already) neither
    underflow to 0 nor overflow; where no square under- or overflows the result is bit-identical to
    sqrt(sum(a * a)).
    """
    a = _columns(a, "matrix a", matrix=True)
    _, exp = math.frexp(float(np.max(np.abs(a))))
    scaled = np.ldexp(a, -exp)
    return float(np.ldexp(np.sqrt(np.sum(scaled * scaled)), exp))
