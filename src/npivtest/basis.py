"""Sieve basis construction.

B-splines (any order >= 2, equispaced or quantile interior knots), the
orthonormal cosine basis on the support interval, power series, tensor
products for multivariate regressors, and the derivative-constraint matrices
that turn monotonicity/curvature nulls into polyhedral cones {M beta <= 0}.

Dimension accounting: `dim` is the number of basis functions J, not a knot
count. For a B-spline of order m (degree m-1) with N interior knots,
J = m + N.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

__all__ = [
    "BasisSpec",
    "ConstraintMatrix",
    "eval_design",
    "deriv_constraints",
    "tensor_design",
    "zeta",
    "min_dim",
]

_FAMILIES = ("bspline", "cosine", "power")
_CONSTRAINT_KINDS = ("decreasing", "increasing", "convex", "concave", "custom")


@dataclass(frozen=True)
class BasisSpec:
    """One-dimensional sieve basis of `dim` functions on [lo, hi].

    order is the B-spline order (degree + 1); it is ignored for the cosine
    and power families. Interior knots are equispaced by default; the
    'quantile' rule places them at empirical quantiles of `knot_data`.
    """

    family: str
    dim: int
    order: int = 3
    support: tuple[float, float] = (0.0, 1.0)
    knot_rule: str = "equispaced"
    knot_data: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InputError(f"unknown basis family {self.family!r}; expected one of {_FAMILIES}")
        lo, hi = self.support
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise InputError(f"support must be a finite interval [lo, hi) with lo < hi, got {self.support}")
        if self.family == "bspline" and self.order < 2:
            raise InputError(f"B-spline order must be >= 2, got {self.order}")
        if self.dim < min_dim(self):
            raise InputError(f"{self.family} basis needs dim >= {min_dim(self)}, got dim={self.dim}")
        if self.knot_rule not in ("equispaced", "quantile"):
            raise InputError(f"unknown knot rule {self.knot_rule!r}")
        if self.knot_rule == "quantile" and self.knot_data is None:
            raise InputError("quantile knot rule requires knot_data")

    @property
    def n_interior(self) -> int:
        return self.dim - self.order if self.family == "bspline" else 0

    def interior_knots(self) -> np.ndarray:
        lo, hi = self.support
        n = self.n_interior
        if n == 0:
            return np.empty(0)
        if self.knot_rule == "equispaced":
            return lo + (hi - lo) * np.arange(1, n + 1) / (n + 1)
        probs = np.arange(1, n + 1) / (n + 1)
        knots = np.quantile(np.asarray(self.knot_data, dtype=float), probs)
        knots = np.clip(knots, lo, hi)
        if np.any(np.diff(knots) <= 0) or knots[0] <= lo or knots[-1] >= hi:
            raise InputError(
                "quantile knots are not strictly increasing inside the support; "
                "the data has too many ties for this many knots"
            )
        return knots

    def knot_vector(self) -> np.ndarray:
        """Clamped knot vector: order copies of each endpoint around the interior knots."""
        lo, hi = self.support
        return np.concatenate(
            [np.full(self.order, lo), self.interior_knots(), np.full(self.order, hi)]
        )


def min_dim(spec) -> int:
    """Smallest admissible dimension of a basis; spec is anything with family and order
    (a BasisSpec, or a RunConfig before any spec exists)."""
    return spec.order if spec.family == "bspline" else 1


def _clamp(spec: BasisSpec, x: np.ndarray) -> np.ndarray:
    lo, hi = spec.support
    if np.any((x < lo) | (x > hi)):
        warnings.warn(
            f"{int(np.sum((x < lo) | (x > hi)))} evaluation points outside [{lo}, {hi}] were clamped",
            stacklevel=3,
        )
        x = np.clip(x, lo, hi)
    return x


def _knot_count(x: np.ndarray, t: np.ndarray, order: int, equispaced: bool) -> np.ndarray:
    """searchsorted(t[order:nb], x, "right"): the number c of interior knots at or below each x, so that x lies
    in the knot span [t[s], t[s+1]), s = c + order - 1 (the last span is right-closed).

    Equispaced interior knots t[order + c] = lo + (hi - lo)(c + 1)/(m + 1) are counted by arithmetic: the count
    floor((x - lo)(m + 1)/(hi - lo)), capped at m, is off by at most one near a knot, and one comparison with
    each neighbouring knot corrects it, so it equals searchsorted's exactly.
    """
    nb = len(t) - order
    inner = t[order:nb]
    if not equispaced:
        return np.searchsorted(inner, x, side="right")
    lo, hi, m = t[0], t[-1], nb - order
    count = np.minimum(((x - lo) * ((m + 1) / (hi - lo))).astype(np.intp), m)  # x >= lo: clamped
    fence = np.concatenate(([-np.inf], inner, [np.inf]))  # fence[c] = inner[c - 1]
    count += fence[1:][count] <= x
    count -= fence[count] > x
    return count


def _bspline_design(x: np.ndarray, t: np.ndarray, order: int, deriv: int, equispaced: bool) -> np.ndarray:
    """All order-`order` B-splines on the clamped knot vector t, or their deriv-th derivative
    (deriv < order), at x in [t[0], t[-1]], by the de Boor recursion on the nonzero ones only, as a
    column-major (Fortran-ordered) n x nb array.

    x lies in the knot span [t[s], t[s+1]) (the last span is right-closed), where only
    N_{s-order+1..s} are nonzero. Stage m maps the m - 1 values of order m - 1 at j = s-m+2..s
    to the m of order m at j = s-m+1..s: Cox-de Boor up to order - deriv, the derivative
    difference formula above it. A window end drops the term whose function lies outside the
    window, the only term that can meet a zero-width knot gap. equispaced says the interior
    knots are equispaced, so the spans come from arithmetic (_knot_count).
    """
    nb, n = len(t) - order, len(x)
    count = _knot_count(x, t, order, equispaced)  # s - order + 1, the first nonzero B-spline
    knot = {offset: t[order - 1 + offset :][count] for offset in range(2 - order, order)}  # knot[o] = t[s + o]
    vals = [np.ones(n)]
    for m in range(2, order + 1):
        # B-spline j = s - m + 1 + r has knots t_j .. t_{j+m} = knot[r - m + 1 .. r + 1]; gaps[r] is
        # t_{j+m} - t_{j+1}, the denominator of its N_{j+1, m-1} term and of B-spline j+1's N_{j+1, m-1} term
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
    out = np.zeros((nb, n))  # the transpose of the column-major result
    flat = out.reshape(-1)
    at = count * n + np.arange(n)  # flat index of each point's first nonzero
    for v in vals:
        flat[at] = v
        at += n
    return out.T


def eval_design(spec: BasisSpec, x, deriv: int = 0) -> np.ndarray:
    """(n x J) design matrix of the basis (or, for B-splines, its deriv-th derivative) at sample points x.

    The design is column-major (Fortran-ordered), so each basis function's column is contiguous. Points
    outside the support are clamped to it with a warning.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1:
        raise InputError(f"eval_design expects scalar or 1-d x, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("evaluation points contain non-finite values")
    if deriv < 0:
        raise InputError(f"derivative order must be >= 0, got {deriv}")
    if deriv > 0 and spec.family != "bspline":
        raise InputError(f"derivatives are only available for the B-spline basis, got {spec.family!r}")
    x = _clamp(spec, x)
    if spec.family == "bspline":
        if deriv >= spec.order:
            return np.zeros((len(x), spec.dim), order="F")
        return _bspline_design(x, spec.knot_vector(), spec.order, deriv, spec.knot_rule == "equispaced")
    lo, hi = spec.support
    u = (x - lo) / (hi - lo)
    out = np.empty((len(x), spec.dim), order="F")
    for jj in range(spec.dim):
        if spec.family == "power":
            out[:, jj] = u**jj
        else:  # cosine: {1, sqrt(2) cos(pi j u)}, orthonormal w.r.t. Lebesgue on [lo, hi] scaled to unit mass
            out[:, jj] = np.sqrt(2.0) * np.cos(np.pi * jj * u) if jj else 1.0
    return out


@dataclass(frozen=True)
class ConstraintMatrix:
    """Polyhedral-cone null {beta : rows @ beta <= 0}."""

    rows: np.ndarray
    kind: str

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        if not np.all(np.isfinite(rows)):
            raise InputError("constraint rows contain non-finite entries")
        if self.kind not in _CONSTRAINT_KINDS:
            raise InputError(f"unknown constraint kind {self.kind!r}")
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


def _greville(t: np.ndarray, order: int) -> np.ndarray:
    nb = len(t) - order
    return np.array([np.mean(t[j + 1 : j + order]) for j in range(nb)])


def _derivative_points(spec: BasisSpec, deriv: int) -> np.ndarray:
    """Points where the deriv-th derivative pins down its sign on the whole interval.

    The derivative of an order-m spline is an order-(m - deriv) spline; for
    order >= 2 its Greville abscissae are interpolatory enough to use
    directly, for order 1 (piecewise constant) one point per knot interval
    suffices.
    """
    t = spec.knot_vector()
    d_order = spec.order - deriv
    t_reduced = t[deriv : len(t) - deriv]
    if d_order >= 2:
        return _greville(t_reduced, d_order)
    breaks = np.concatenate([[spec.support[0]], spec.interior_knots(), [spec.support[1]]])
    return 0.5 * (breaks[:-1] + breaks[1:])


def deriv_constraints(spec: BasisSpec, kind: str) -> ConstraintMatrix:
    """Constraint rows M with M beta <= 0 iff the fitted spline satisfies the shape null.

    decreasing/increasing constrain the first derivative at dim-1 points;
    convex/concave constrain the second derivative (one row per knot interval
    for quadratic splines). Exact over the whole interval for quadratic
    splines under monotonicity and for any order whose constrained derivative
    is piecewise linear or constant.
    """
    if spec.family != "bspline":
        raise InputError(f"derivative constraints require a B-spline basis, got {spec.family!r}")
    if kind in ("decreasing", "increasing"):
        if spec.order < 2:
            raise InputError("monotonicity constraints need B-spline order >= 2")
        rows = eval_design(spec, _derivative_points(spec, 1), deriv=1)
        return ConstraintMatrix(rows if kind == "decreasing" else -rows, kind)
    if kind in ("concave", "convex"):
        if spec.order < 3:
            raise InputError("curvature constraints need B-spline order >= 3")
        rows = eval_design(spec, _derivative_points(spec, 2), deriv=2)
        return ConstraintMatrix(rows if kind == "concave" else -rows, kind)
    raise InputError(f"unsupported constraint kind {kind!r}; use a custom ConstraintMatrix instead")


def tensor_design(specs, x) -> np.ndarray:
    """Row-wise tensor product design; columns are all cross-products, one factor per coordinate, the last
    coordinate's index running fastest. Column-major, like eval_design."""
    if len(specs) < 1:
        raise InputError("tensor_design needs at least one basis spec")
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[1] != len(specs):
        raise InputError(
            f"sample has {x.shape[1] if x.ndim == 2 else 1} coordinates but {len(specs)} basis specs were given"
        )
    return _tensor_product([eval_design(spec, x[:, k]) for k, spec in enumerate(specs)])


def _tensor_product(factors) -> np.ndarray:
    """The column-major row-wise tensor product of the n x J_d factor designs: column (j, k) of the product of
    two factors is their columns' elementwise product, formed one left column at a time."""
    design = factors[0]
    for nxt in factors[1:]:
        out = np.empty((design.shape[0], design.shape[1] * nxt.shape[1]), order="F")
        for j in range(design.shape[1]):
            np.multiply(design[:, j, None], nxt, out=out[:, j * nxt.shape[1] : (j + 1) * nxt.shape[1]])
        design = out
    return design


def zeta(spec, dim: int | None = None) -> float:
    """Sup-norm growth constant of the sieve: sqrt(J) for spline/cosine, J for power series."""
    if isinstance(spec, (list, tuple)):
        families = {s.family for s in spec}
        total = int(np.prod([s.dim for s in spec])) if dim is None else dim
        if families == {"power"}:
            return float(total)
        if "power" in families:
            raise InputError("mixed power/non-power tensor factors have no common growth rate")
        return float(np.sqrt(total))
    j = spec.dim if dim is None else dim
    return float(j) if spec.family == "power" else float(np.sqrt(j))
