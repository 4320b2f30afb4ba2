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

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, TiedKnotsError, _choice, _columns, _instance, _interval, _number, _real_floats

__all__ = [
    "BasisSpec",
    "ConstraintMatrix",
    "eval_design",
    "deriv_constraints",
    "zeta",
    "min_dim",
]

_FAMILIES = ("bspline", "cosine", "power")
# each built-in shape: the derivative it constrains and the sign s of the rows, s * derivative <= 0 under the null
_SHAPES = {"decreasing": (1, 1.0), "increasing": (1, -1.0), "convex": (2, -1.0), "concave": (2, 1.0)}
_SHAPE_KINDS = tuple(_SHAPES)
_CONSTRAINT_KINDS = (*_SHAPE_KINDS, "custom")
_KNOT_RULES = ("equispaced", "quantile")


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
        _choice(self.family, "basis family", _FAMILIES)
        object.__setattr__(self, "support", _interval(self.support, "support"))
        object.__setattr__(self, "order", _number(self.order, "order", 2 if self.family == "bspline" else None,
                                                  integer=True))
        object.__setattr__(self, "dim", _number(self.dim, f"{self.family} basis dim", min_dim(self), integer=True))
        if _choice(self.knot_rule, "knot rule", _KNOT_RULES) == "quantile" and self.knot_data is None:
            raise InputError("quantile knot rule requires knot_data")
        if self.knot_data is not None:
            object.__setattr__(self, "knot_data", _columns(self.knot_data, "knot_data", 1))

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
        data = self.knot_data
        # a point at or beyond an end lies in the first or last knot span wherever the interior knots are
        inside = data[(data > lo) & (data < hi)]
        knots = np.quantile(inside, np.arange(1, n + 1) / (n + 1)) if inside.size else None
        if knots is None or np.any(np.diff(knots) <= 0):
            raise TiedKnotsError("quantile knots are not strictly increasing inside the support; the data has too "
                                 "many ties for this many knots")
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
    return spec.order if _choice(getattr(spec, "family", None), "spec family", _FAMILIES) == "bspline" else 1


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
    del knot, gaps  # the span's knots and gaps are freed before the design, the largest array, exists
    count *= n
    count += np.arange(n)  # count is now the flat index of each point's first nonzero
    out = np.zeros((nb, n))  # the transpose of the column-major result
    flat = out.reshape(-1)
    for v in vals:
        flat[count] = v
        count += n
    return out.T


def eval_design(spec: BasisSpec, x, deriv: int = 0) -> np.ndarray:
    """(n x J) design matrix of the basis (or, for B-splines, its deriv-th derivative) at sample points x.

    The design is column-major (Fortran-ordered), so each basis function's column is contiguous. Points
    outside the support are clamped to it silently: a scan's report counts them (adaptive._clamp_warnings).
    """
    spec, x = _instance(spec, BasisSpec, "spec"), np.atleast_1d(_real_floats(x, "x"))
    if x.ndim != 1:
        raise InputError(f"eval_design expects scalar or 1-d x, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("evaluation points contain non-finite values")
    deriv = _number(deriv, "derivative order deriv", 0, integer=True)
    if deriv > 0 and spec.family != "bspline":
        raise InputError(f"derivatives are only available for the B-spline basis, got {spec.family!r}")
    lo, hi = spec.support
    if np.any((x < lo) | (x > hi)):  # copied only when a point lies outside
        x = np.clip(x, lo, hi)
    if spec.family == "bspline":
        if deriv >= spec.order:
            return np.zeros((len(x), spec.dim), order="F")
        return _bspline_design(x, spec.knot_vector(), spec.order, deriv, spec.knot_rule == "equispaced")
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
        rows = np.atleast_2d(_columns(self.rows, "constraint rows"))
        if not np.all(np.isfinite(rows)):
            raise InputError("constraint rows contain non-finite entries")
        _choice(self.kind, "constraint kind", _CONSTRAINT_KINDS)
        object.__setattr__(self, "rows", rows)


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
    if _instance(spec, BasisSpec, "spec").family != "bspline":
        raise InputError(f"derivative constraints require a B-spline basis, got {spec.family!r}")
    deriv, sign = _SHAPES[_choice(kind, "constraint kind", _SHAPE_KINDS)]
    if spec.order <= deriv:  # BasisSpec holds a B-spline to order >= 2, so only a curvature row can need more
        raise InputError("curvature constraints need B-spline order >= 3")
    return ConstraintMatrix(sign * eval_design(spec, _derivative_points(spec, deriv), deriv=deriv), kind)


def _tensor_product(factors) -> np.ndarray:
    """The column-major row-wise tensor product of the n x J_d factor designs: column (j, k) of the product of
    two factors is their columns' elementwise product, formed one left column at a time, so the last factor's index
    runs fastest. Both scans build every tensor instrument here, from _Designs' kept factors."""
    design = factors[0]
    for nxt in factors[1:]:
        out = np.empty((design.shape[0], design.shape[1] * nxt.shape[1]), order="F")
        for j in range(design.shape[1]):
            np.multiply(design[:, j, None], nxt, out=out[:, j * nxt.shape[1] : (j + 1) * nxt.shape[1]])
        design = out
    return design


def zeta(spec: BasisSpec, dim: int | None = None) -> float:
    """Sup-norm growth constant of the sieve of spec's family at dim (default spec.dim): sqrt(dim) for spline and
    cosine, dim for power series. A tensor of equal factors passes one factor's spec and the tensor's dim."""
    power = _instance(spec, BasisSpec, "spec").family == "power"
    j = spec.dim if dim is None else _number(dim, "dim", 1, integer=True)
    return float(j) if power else float(np.sqrt(j))
