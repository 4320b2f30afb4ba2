"""Probability kernels: normal CDF, chi-square quantiles, MVN sampling,
and splittable deterministic RNG streams for reproducible parallel Monte Carlo.

Streams are counter-based (Philox) and keyed on (master_seed, stream_id), so
replication r of any experiment is reproducible in isolation and runs of the
same experiment are bit-identical regardless of worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox
from scipy import special

from .errors import InputError, _columns, _instance, _number, _real_floats
from .linalg import frobenius_norm

__all__ = [
    "RngStream",
    "CovarianceSpec",
    "std_normal_cdf",
    "chisq_quantile",
    "chisq_sf",
    "mvn_sample",
]

_U64 = np.uint64


@dataclass(frozen=True)
class RngStream:
    """Deterministic stream keyed on (master_seed, stream_id).

    Each stream is owned by exactly one worker at a time; create a fresh
    stream per replication instead of sharing one mid-sequence.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "master_seed", _number(self.master_seed, "master_seed", integer=True))
        object.__setattr__(self, "stream_id", _number(self.stream_id, "stream_id", 0, integer=True))

    def generator(self) -> Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array([self.master_seed % 2**64, self.stream_id % 2**64], dtype=_U64)
        return Generator(Philox(key=key))


@dataclass(frozen=True)
class CovarianceSpec:
    """Symmetric PSD covariance with a validated Cholesky factor."""

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = _columns(self.matrix, "covariance", matrix=True, finite=True)
        if m.shape[0] != m.shape[1]:
            raise InputError(f"covariance must be square, got shape {m.shape}")
        if np.max(np.abs(m - m.T)) > 1e-10 * max(frobenius_norm(m), 1e-300):
            raise InputError("covariance is not symmetric")
        object.__setattr__(self, "matrix", 0.5 * (m + m.T))
        object.__setattr__(self, "dim", m.shape[0])

    def cholesky(self) -> np.ndarray:
        try:
            return np.linalg.cholesky(self.matrix)
        except np.linalg.LinAlgError as exc:
            raise InputError("covariance is not positive definite (Cholesky failed)") from exc


def std_normal_cdf(x):
    """Standard normal distribution function Phi."""
    return special.ndtr(_real_floats(x, "x"))


def chisq_quantile(a: float, k: int) -> float:
    """Upper-a quantile of chi-square with k degrees of freedom.

    Returns q with P(chi2_k <= q) = 1 - a, via the regularized lower
    incomplete gamma inverse.
    """
    a, k = _number(a, "tail level a", 0, 1), _number(k, "degrees of freedom k", 1, integer=True)
    return float(2.0 * special.gammaincinv(0.5 * k, 1.0 - a))


def chisq_sf(x: float, k: int) -> float:
    """Upper tail P(chi2_k > x); x below 0 gives 1, x = inf gives 0 and NaN gives NaN."""
    x, k = _number(x, "x", finite=False), _number(k, "degrees of freedom k", 1, integer=True)
    if x <= 0.0:
        return 1.0
    return float(special.gammaincc(0.5 * k, 0.5 * x))


def mvn_sample(cov: CovarianceSpec, rng: RngStream, n: int) -> np.ndarray:
    """n mean-zero draws (n x dim) with the requested covariance, from the start of rng's stream."""
    cov, rng = _instance(cov, CovarianceSpec, "cov"), _instance(rng, RngStream, "rng")
    n = _number(n, "sample size n", 1, integer=True)
    chol = cov.cholesky()
    z = rng.generator().standard_normal((n, cov.dim))
    return z @ chol.T
