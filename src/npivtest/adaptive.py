"""The adaptive restriction test.

Per candidate sieve dimension J the machinery computes a centered
(leave-one-out) quadratic-form statistic D_J from null-restricted residuals,
a normalization v_J from unrestricted residuals, and an active-rank-adjusted
chi-square critical value with Bonferroni correction over the candidate set.
The test rejects when any standardized statistic W_J exceeds one.

Candidate sets come in three modes:
  * 'dyadic': the exponential-scan set {J_ * 2^j} capped by the data-driven
    stability bound J_max;
  * 'knots': every dimension from the basis minimum up to J_max (the grid the
    simulation reproductions use);
  * an explicit list, taken literally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from typing import Callable, ClassVar, Sequence

import numpy as np

from .basis import (_KNOT_RULES, _SHAPE_KINDS, _SHAPES, BasisSpec, ConstraintMatrix, _tensor_product,
                    deriv_constraints, eval_design, min_dim, zeta)
from .errors import (InputError, NumericalError, SingularGramError, SingularRegressorGramError, _choice, _columns,
                     _indices, _instance, _interval, _number, _real_floats, _sequence)
from .linalg import _lapack, frobenius_norm, orthonormal_range
from .npiv import (_MODEL_KINDS, ACTIVE_TOL, _Cone, _unit_rows, _weights, fit_from_design, fit_restricted_parametric,
                   parametric_design)
from .randdist import chisq_quantile, chisq_sf

__all__ = [
    "NullSpec",
    "RunConfig",
    "CandidateGrid",
    "CandidateRecord",
    "TestReport",
    "compute_D",
    "compute_vhat",
    "gamma_hat",
    "eta_hat",
    "adaptive_test",
    "adaptive_scan",
    "decide",
    "cs_contains",
    "image_space_scan",
    "image_space_test",
]

_NULLS = _SHAPE_KINDS + _MODEL_KINDS  # the nulls a name gives (NullSpec.from_name)
_NULL_KINDS = ("shape", "parametric")
_GRID_MODES = ("dyadic", "knots")  # the candidate rules besides an explicit list
_STATISTICS = ("structural", "image-space")
_TINY = np.finfo(float).tiny  # smallest normal float
_MIN_N = 20  # observations of the smallest sample a scan takes
_BASIS_NAMES = {
    "bspline2": ("bspline", 3),
    "bspline3": ("bspline", 4),
    "cosine": ("cosine", 0),
    "power": ("power", 0),
}
_BASES = tuple(_BASIS_NAMES)


@dataclass(frozen=True)
class NullSpec:
    """Null hypothesis: a polyhedral-cone shape restriction or a parametric form."""

    kind: str  # 'shape' | 'parametric'
    shape: str | None = None
    model: str | None = None
    custom_rows: Callable[[BasisSpec], ConstraintMatrix] | None = field(default=None, compare=False)
    custom_design: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        """A shape null without custom rows names a built-in shape, and a parametric null without a custom design
        a named model; a shape or model the null does not use is, where given, a label."""
        _choice(self.kind, "null kind", _NULL_KINDS)
        if self.custom_rows is not None:
            _instance(self.custom_rows, Callable, "custom_rows")
        if self.custom_design is not None:  # checked once, here, for every scan of this null
            object.__setattr__(self, "custom_design", _columns(self.custom_design, "custom design"))
        if self.kind == "shape" and self.custom_rows is None:
            _choice(self.shape, "shape", _SHAPE_KINDS)
        elif self.shape is not None:
            _instance(self.shape, str, "shape")
        if self.kind == "parametric" and self.custom_design is None:
            _choice(self.model, "model", _MODEL_KINDS)
        elif self.model is not None:
            _instance(self.model, str, "model")

    @staticmethod
    def from_name(name: str) -> "NullSpec":
        if _choice(name, "null", _NULLS) in _SHAPE_KINDS:
            return NullSpec(kind="shape", shape=name)
        return NullSpec(kind="parametric", model=name)

    def describe(self) -> str:
        if self.kind == "shape":
            return "custom" if self.custom_rows is not None else self.shape
        return f"parametric:{'custom' if self.custom_design is not None else self.model}"

    def constraints(self, spec: BasisSpec) -> ConstraintMatrix:
        if self.kind != "shape":
            raise InputError("constraints are only defined for shape nulls")
        if self.custom_rows is not None:
            return _instance(self.custom_rows(spec), ConstraintMatrix, "custom_rows(spec)")
        if spec.knot_rule != "equispaced":  # a quantile spec's hash leaves out its knot data
            return deriv_constraints(spec, self.shape)
        return _equispaced_constraints(spec, self.shape)


@lru_cache(maxsize=256)
def _equispaced_constraints(spec: BasisSpec, shape: str) -> ConstraintMatrix:
    """deriv_constraints on an equispaced basis, which its rows depend on alone: built once per process and
    returned read-only."""
    m = deriv_constraints(spec, shape)
    m.rows.flags.writeable = False
    return m


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration: the level alpha, the sieve basis and its support and knot rule, the candidate
    rule grid and K = k_factor * J. A --config file names any of these six fields (and may carry schema_version 1);
    the CLI flags override alpha, basis, grid, k_factor and support by name, and --quantile-knots sets knot_rule."""

    alpha: float = 0.05
    basis: str = "bspline2"
    grid: str | tuple[int, ...] = "dyadic"  # 'dyadic' | 'knots' | explicit tuple
    k_factor: int = 4
    support: tuple[float, float] = (0.0, 1.0)
    knot_rule: str = "equispaced"

    schema_version: ClassVar[int] = 1

    def __post_init__(self):
        object.__setattr__(self, "alpha", _number(self.alpha, "alpha", 0, 1))
        object.__setattr__(self, "k_factor", _number(self.k_factor, "k_factor", 2, integer=True))
        object.__setattr__(self, "support", _interval(self.support, "support"))
        _choice(self.basis, "basis", _BASES), _choice(self.knot_rule, "knot rule", _KNOT_RULES)
        if isinstance(self.grid, str):
            _choice(self.grid, "grid mode", _GRID_MODES)
        else:
            object.__setattr__(self, "grid", tuple(sorted({_number(j, "explicit grid entry", 1, integer=True)
                                                           for j in _sequence(self.grid, "explicit grid")})))

    @property
    def family(self) -> str:
        return _BASIS_NAMES[self.basis][0]

    @property
    def order(self) -> int:
        return _BASIS_NAMES[self.basis][1]

    def psi_spec(self, j: int, knot_data=None) -> BasisSpec:
        return BasisSpec(self.family, j, max(self.order, 2), self.support, self.knot_rule, knot_data)

    def instrument_per_dim(self, k_target: int, d_w: int) -> int:
        """The smallest per-coordinate dimension, at least the basis minimum, whose d_w-th power reaches k_target."""
        lo, hi = self.basis_min(), max(self.basis_min(), k_target)  # bisection on the integers: hi^d_w >= k_target
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if mid**d_w < k_target else (lo, mid)
        return lo

    def instrument_dim(self, k_target: int, d_w: int) -> int:
        """Realized dimension of the instrument design for k_target; with d_w = 1, max(k_target, basis minimum)."""
        return self.instrument_per_dim(k_target, d_w) ** d_w

    def instrument_specs(self, k_target: int, w: np.ndarray) -> list[BasisSpec]:
        """One basis spec per column of the n x d_w instrument sample w, of dimension instrument_dim(k_target, d_w)
        together: a d_w-dimensional instrument gets the tensor product of d_w equal factors."""
        per_dim = self.instrument_per_dim(k_target, w.shape[1])
        return [self.psi_spec(per_dim, c if self.knot_rule == "quantile" else None) for c in w.T]

    def basis_min(self) -> int:
        return min_dim(self)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "alpha": self.alpha,
            "basis": self.basis,
            "grid": self.grid if isinstance(self.grid, str) else list(self.grid),
            "k_factor": self.k_factor,
            "support": list(self.support),
            "knot_rule": self.knot_rule,
        }

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        return _from_fields(RunConfig, d, "config")


def _check_test(statistic: str, null: NullSpec, config: RunConfig) -> None:
    """The one rule of which null and config a statistic takes: the image-space statistic fits a parametric null
    on its own dyadic grid, whatever config.grid says; a built-in shape null's derivative constraints need a
    B-spline basis; and an explicit structural grid starts at the basis minimum."""
    if statistic == "image-space":
        if null.kind != "parametric":
            raise InputError(f"the image-space statistic needs a parametric null, got {null.describe()!r}")
    elif null.kind == "shape" and null.custom_rows is None and config.family != "bspline":
        raise InputError(f"the {null.shape} null's derivative constraints require a B-spline basis, "
                         f"got {config.basis!r}")
    elif isinstance(config.grid, tuple) and config.grid[0] < config.basis_min():
        raise InputError(f"explicit grid entry J={config.grid[0]} is below the basis minimum {config.basis_min()}")


def _from_fields(cls, d: dict, what: str):
    """cls built from d, a file's JSON object: schema_version, where d names it, must be 1, and every other key
    must be a field of cls. what names the file kind in the errors."""
    d = dict(d)
    version = d.pop("schema_version", 1)
    if version != 1:
        raise InputError(f"unsupported {what} schema version {version}")
    for key in d:
        _choice(key, f"{what} key", tuple(cls.__dataclass_fields__))
    return cls(**d)


@dataclass(frozen=True)
class CandidateGrid:
    """Candidate sieve dimensions with their stability diagnostics.

    shat maps each stepped dimension to its stability measure s: every visited candidate's, and every
    non-candidate's the scan computed. A B-spline image-space step that certifies noise < s from
    its knot-interval counts or tensor column sums computes no s, so such a non-candidate has no entry.
    """

    mode: str
    j_underbar: int
    j_max_exp: int
    hard_cap: int
    j_max_hat: int
    j_list: tuple[int, ...]
    shat: dict[int, float]
    fallback: bool = False

    @property
    def size(self) -> int:
        return len(self.j_list)


@dataclass(frozen=True)
class CandidateRecord:
    """Per-candidate statistics; eta/w_stat/p_value are at the report's alpha."""

    j: int
    k: int
    d_stat: float
    v_stat: float
    s_hat: float
    gamma: int
    eta: float
    w_stat: float
    p_value: float
    n_active: int

    def to_dict(self) -> dict:
        return {
            "J": self.j,
            "K": self.k,
            "D": self.d_stat,
            "v": self.v_stat,
            "s_hat": self.s_hat,
            "gamma": self.gamma,
            "eta": self.eta,
            "W": self.w_stat,
            "p_value": self.p_value,
            "n_active": self.n_active,
        }


@dataclass(frozen=True)
class TestReport:
    """Outcome of one adaptive test run."""

    statistic: str  # 'structural' | 'image-space'
    null: str
    alpha: float
    grid: CandidateGrid
    per_j: tuple[CandidateRecord, ...]
    reject: bool
    j_reported: int
    j_selected_set: tuple[int, ...]
    p_value: float
    p_threshold: float
    config: dict
    warnings: tuple[str, ...] = ()

    @property
    def w_reported(self) -> float:
        for rec in self.per_j:
            if rec.j == self.j_reported:
                return rec.w_stat
        raise KeyError(self.j_reported)

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "null": self.null,
            "alpha": self.alpha,
            "grid": {
                "mode": self.grid.mode,
                "J_underbar": self.grid.j_underbar,
                "j_max_exp": self.grid.j_max_exp,
                "hard_cap": self.grid.hard_cap,
                "J_max_hat": self.grid.j_max_hat,
                "J_list": list(self.grid.j_list),
                "fallback": self.grid.fallback,
            },
            "per_J": [rec.to_dict() for rec in self.per_j],
            "reject": self.reject,
            "J_reported": self.j_reported,
            "J_selected_set": list(self.j_selected_set),
            "W_reported": self.w_reported,
            "p_value": self.p_value,
            "p_threshold": self.p_threshold,
            "config": self.config,
            "warnings": list(self.warnings),
        }


def _numerically_zero(residuals: np.ndarray, y: np.ndarray) -> bool:
    """Residuals at rounding level relative to the outcome scale count as exact zeros."""
    return float(np.max(np.abs(residuals), initial=0.0)) <= 1e-12 * float(np.max(np.abs(y)))


def _check_underflow(at: str, y: np.ndarray, **stats: tuple[float, np.ndarray]) -> None:
    """Raise for a statistic (name=(value, its residuals)) that is zero or subnormal although its residuals
    are not numerically zero: a square underflowed on the way, and a decision from it would be silent. at names
    the candidate, "J=3" or "K=3"."""
    for name, (value, residuals) in stats.items():
        if abs(value) < _TINY and not _numerically_zero(residuals, y):
            raise NumericalError(f"candidate {at}: {name}={value} underflowed from residuals that are not "
                                 "numerically zero; rescale y")


def _res_parameters(n: int) -> tuple[int, int, int]:
    if n < _MIN_N:
        raise InputError(f"need at least {_MIN_N} observations, got {n}")
    j_under = max(1, math.floor(math.sqrt(math.log(math.log(n)))))
    j_max_exp = max(0, math.ceil(math.log2(n ** (1.0 / 3.0) / j_under)))
    return j_under, j_max_exp, j_under * 2**j_max_exp


def _dyadic(j_under: int, j_max_exp: int, basis_min: int) -> list[int]:
    """The exponential-scan set {J_ * 2^j}, lifted to the basis minimum."""
    return sorted({max(j_under * 2**jj, basis_min) for jj in range(j_max_exp + 1)})


def _noise_level(spec, dim: int, n: int) -> float:
    """Stability-scan noise level 1.5 zeta^2 sqrt(log(dim) / n) of a design of `dim` columns."""
    return 1.5 * zeta(spec, dim) ** 2 * math.sqrt(math.log(dim) / n)


def _clamp_warnings(config: RunConfig, **samples) -> list[str]:
    """A report line per sample with observations outside the support, which basis evaluation clamps."""
    lo, hi = config.support
    lines = []
    for name, values in samples.items():
        outside = ((values < lo) | (values > hi)).reshape(len(values), -1).any(axis=1)  # per observation
        if outside.any():
            lines.append(f"{int(outside.sum())} points of {name} outside [{lo}, {hi}] were clamped")
    return lines


def _checked_data(ys, x, w, mu):
    """The sample (ys, x, w, mu, n) of every pass: n finite observations, w as an n x d_w view, mu checked."""
    ys, x, w = [_columns(y, "y", 1) for y in ys], _columns(x, "x"), _columns(w, "w")
    n = ys[0].shape[0]
    if any(a.shape[0] != n for a in (*ys, x, w)):
        raise InputError("y, x, w must share the number of observations")
    if not all(np.all(np.isfinite(a)) for a in (*ys, x, w)):
        raise InputError("data contains non-finite values")
    return ys, x, np.atleast_2d(w.T).T, _weights(mu, n), n


def _single(scan, label: str, config: RunConfig):
    """A public scan's (grid, entries, warnings, n) of its one outcome, from its pass's (grid, results, warnings,
    sample); the error that ended the pass is raised, a data failure as an InputError naming the candidate."""
    grid, (entries,), warnings, (_, x, w, mu, n) = scan
    if isinstance(entries, (SingularGramError, SingularRegressorGramError)):
        j, basis = entries.candidate, config.basis
        k = config.instrument_dim(config.k_factor * j if label == "J" else j, w.shape[1])
        at = f"its {'minimum ' if entries.minimum else ''}candidate {label}={j if label == 'J' else k}"
        if isinstance(entries, SingularRegressorGramError):
            raise InputError(f"regressor sample too degenerate for the {basis} basis: the weighted gram Psi'Omega Psi "
                             f"of {at} is singular at n={n} with {np.unique(x[mu > 0]).size} distinct x value(s)"
                             ) from entries
        if k < n and len(np.unique(w, axis=0)) < k:  # B_K has rank at most the number of distinct points of w
            counts = ", ".join(str(np.unique(c).size) for c in w.T)
            columns = f" (K={k} instrument columns)" if label == "J" else ""
            raise InputError(f"instrument sample too degenerate for the {basis} basis: the gram B'B of {at}{columns} "
                             f"is singular at n={n} with {counts} distinct w value(s)"
                             f"{' per column' if w.shape[1] > 1 else ''}") from entries
        raise InputError(f"sample too small for the {basis} basis: {at} needs K={k} instrument columns, whose gram "
                         f"B'B is singular at n={n}") from entries
    if isinstance(entries, NumericalError):
        raise entries
    return grid, entries, warnings, n


class _Designs:
    """The instrument designs of one sample w, for every candidate pass on it.

    w is the sample's n x d_w view. The one-dimensional factors of a tensor instrument (d_w > 1) are kept,
    read-only, as long as the owner holds the object, one public scan call or one Monte Carlo replication: the
    stability steps, the candidates and the tensors of every pass on w read them. A design B_K is built on each
    request, and its user factors it, so a pass holds only the designs and factor of the candidate it is at.
    """

    def __init__(self, w: np.ndarray):
        self.w = w
        self._factors: dict[tuple, np.ndarray] = {}

    def factors(self, specs) -> list[np.ndarray]:
        """Spec i's design at coordinate i of the 2-d w; a spec's equality leaves out its knot data, which for
        coordinate i of one w is always w[:, i]."""
        out = []
        for i, spec in enumerate(specs):
            key = (spec, i)
            if key not in self._factors:
                self._factors[key] = eval_design(spec, self.w[:, i])
                self._factors[key].flags.writeable = False
            out.append(self._factors[key])
        return out

    def instrument(self, config: RunConfig, k_target: int) -> np.ndarray:
        """B_K: config's instrument design for k_target at w, the tensor product of the kept factors for a 2-d w.
        Both scans build every B here, and a K >= n (B'B of rank at most n) is a SingularGramError before B exists."""
        specs = config.instrument_specs(k_target, self.w)
        k = math.prod(spec.dim for spec in specs)
        if k >= self.w.shape[0]:
            raise SingularGramError(f"instrument gram B'B is numerically singular (dim {k})")
        if self.w.shape[1] == 1:
            return eval_design(specs[0], self.w[:, 0])
        return _tensor_product(self.factors(specs))


def _candidate_pass(n: int, grid: str | tuple[int, ...], step, visit, outcomes, j_min: int, notices: list[str]):
    """(grid, results): candidate dimensions via the rule grid, the exponential scan ('dyadic'), the knot scan
    ('knots') or an explicit list (a tuple), and the statistics of every outcome on them. The line of a stopped
    scan or a fallback is appended to notices, the scan's one notice list.

    The grid builder of the structural and the image-space scans. step(j)
    returns (dim, noise, s, designs) of scan index j: the designs' realized
    dimension, noise level and stability measure, and the designs. A step
    that has certified noise < s without computing s returns s = None and
    may return no designs; it cannot stop the scan. Candidates are keyed by
    dim; visit(dim, s, designs) turns each one's designs, once, into its
    y-free factor (dim, the exact s, ...), and each outcome at once turns
    that factor into its _ScanEntry. Designs and factor are dropped before
    the next index's designs are built. j_min is the scan's lowest
    admissible index, the one minimum every rule starts from.

    The pass steps an explicit grid's list, or the rule's candidates below
    the scan start and then every index up to the hard cap, until the noise
    level overtakes s (J_max_hat). A NumericalError in an index's step,
    visit or outcomes ends the pass where J_max_hat keeps that candidate
    (explicit, below the scan start or the scan's first index) or no outcome
    is left running; else a warning stops the scan at max(scan start, j - 1).
    A data failure, a candidate the sample cannot carry (a singular gram,
    K >= n or tied quantile knots), is such an error in either scan. The
    error that ends the pass gets its index as exc.candidate, and as
    exc.minimum whether that index is j_min.

    results[i] is outcome i's entries, or the NumericalError that ended it:
    its own, which ends that outcome alone, or the one that ended the pass
    while it ran. A pass that ends returns grid None.
    """
    j_under, j_max_exp, hard_cap = _res_parameters(n)
    shat: dict[int, float] = {}
    j_list: list[int] = []
    results: list[list[_ScanEntry] | NumericalError] = [[] for _ in outcomes]

    def record(dim: int, noise: float, s: float | None, designs, candidate: bool = True) -> bool:
        """Visit a new candidate, keep the exact s of a stepped index; True when the noise level overtakes s."""
        stop = s is not None and noise >= s
        if candidate and dim not in j_list:
            factor = visit(dim, s, designs)
            s = factor[1]
            for i, outcome in enumerate(outcomes):
                if isinstance(results[i], list):
                    try:
                        results[i].append(outcome(factor))
                    except NumericalError as exc:
                        results[i] = exc
            if not any(isinstance(res, list) for res in results):
                raise results[-1]  # ends the pass, every outcome holding its own error
            j_list.append(dim)
        if s is not None:
            shat[dim] = s
        return stop

    mode = "explicit" if isinstance(grid, tuple) else grid
    if mode == "explicit":
        rule = indices = grid
        scan_start, j_max_hat = math.inf, grid[-1]  # an explicit grid has no stability scan
    else:
        # the rule's candidates are the ones that do not exceed the stability bound J_max_hat
        rule = _dyadic(j_under, j_max_exp, j_min) if mode == "dyadic" else range(j_min, hard_cap + 1)
        scan_start, j_max_hat = max(j_under + 1, j_min), hard_cap
        indices = [*(j for j in rule if j < scan_start), *range(scan_start, hard_cap + 1)]
    try:
        for j in indices:
            try:
                stop = record(*step(j), candidate=j in rule)
            except NumericalError as exc:
                if (j in rule and j <= scan_start) or not any(isinstance(res, list) for res in results):
                    raise
                notices.append(f"stability scan stopped at J={j}: {exc}")
                j_max_hat = max(scan_start, j - 1)
                break
            if stop and j >= scan_start:  # data-driven stability bound: first J where the noise level overtakes s_J
                j_max_hat = j
                break

        fallback = not j_list
        if fallback:
            notices.append(
                f"J_max_hat={j_max_hat} leaves no admissible candidate; falling back to the singleton {{{j_min}}}"
            )
            j = j_min
            record(*step(j))
    except NumericalError as exc:  # a y-free error, or the last running outcome's: the pass ends
        exc.candidate, exc.minimum = j, j == j_min
        return None, [exc if isinstance(res, list) else res for res in results]
    return CandidateGrid(mode=mode, j_underbar=j_under, j_max_exp=j_max_exp, hard_cap=hard_cap, j_max_hat=j_max_hat,
                         j_list=tuple(j_list), shat=shat, fallback=fallback), results


def _map_and_residuals(scaled_map, r) -> tuple[np.ndarray, np.ndarray]:
    scaled_map, r = _real_floats(scaled_map, "scaled map"), _real_floats(r, "residuals")
    if scaled_map.ndim != 2 or r.shape != (scaled_map.shape[1],):
        raise InputError(f"need a 2-d scaled map and residuals, one per column, got {scaled_map.shape} and {r.shape}")
    return scaled_map, r


def compute_D(scaled_map, r) -> float:
    """Centered leave-one-out quadratic form (|S r|^2 - sum_i r_i^2 |S_i|^2) / (n - 1); may be negative.

    S is the map compute_vhat takes. With S = NpivFit.scaled_map = L'C, which fit_from_design builds from
    (Psi, B, mu) alone, this is 2/(n(n-1)) sum_{i<i'} r_i r_{i'} [Q' Omega Q]_{i i'}, Q = sqrt(n) Psi C; the
    structural statistic passes the restricted residuals as r.
    """
    scaled_map, r = _map_and_residuals(scaled_map, r)
    t = scaled_map @ r
    squares = sum(row * row for row in scaled_map)  # |S_i|^2, row by row, as np.sum(S**2, axis=0) adds them
    loo = float(np.sum(r * r * squares))
    return (float(t @ t) - loo) / (r.shape[0] - 1)


def compute_vhat(scaled_map, u) -> float:
    """Frobenius norm of the standardized residual sandwich S diag(u^2) S'.

    S is the standardized coefficient operator (rows of length n), which the
    structural statistic takes as NpivFit.scaled_map, with the unrestricted
    residuals u = y - Psi NpivFit.coefficients(y). The image-space
    statistic is this with S = U_B', computed in instrument coordinates by
    _image_space_statistics.
    """
    scaled_map, u = _map_and_residuals(scaled_map, u)
    return _vhat_scaling(np.array(scaled_map, order="K"), u)


def _vhat_scaling(s: np.ndarray, u: np.ndarray) -> float:
    """compute_vhat(s, u), scaling s by u in place: s must be a map the caller owns alone, never a factor that
    several outcomes share."""
    s *= u
    return frobenius_norm(s @ s.T)


def gamma_hat(m: ConstraintMatrix, active_set) -> int:
    """Chi-square degrees of freedom of a cone null: the rank of the active constraint rows at unit norm, at least 1."""
    rows = _instance(m, ConstraintMatrix, "m").rows
    active = _unit_rows(rows[_indices(active_set, "active_set", rows.shape[0])])
    return max(1, int(_lapack(np.linalg.matrix_rank, active))) if active.size else 1


def eta_hat(alpha: float, grid_size: int, gamma: int, center: int | None = None) -> float:
    """Bonferroni-adjusted chi-square critical value with gamma degrees of freedom, centered at center (gamma)."""
    alpha, grid_size = _number(alpha, "alpha", 0, 1), _number(grid_size, "grid_size", 1, integer=True)
    gamma = _number(gamma, "gamma", 1, integer=True)
    center = gamma if center is None else _number(center, "center", 1, integer=True)
    return (chisq_quantile(alpha / grid_size, gamma) - center) / math.sqrt(center)


@dataclass(frozen=True)
class _ScanEntry:
    j: int
    k: int
    d_stat: float
    v_stat: float
    s_hat: float
    gamma: int  # chi-square degrees of freedom
    n_active: int
    center: int  # centering constant of the standardized statistic: gamma, or K for the image-space one


def adaptive_scan(y, x, w, null: NullSpec, config: RunConfig, mu=None):
    """Alpha-free part of the test: grid plus per-J statistics, in one pass.

    Each stepped J evaluates Psi_J and B_K, K = k_factor * J, and factors
    them once, without reading y: the factor's s_hat is the stability measure
    s_J. A candidate's visit adds the shape null's constraint rows to that
    y-free factor, and _structural_outcome, the only part that reads y,
    computes its statistics at once. Returns (grid, entries, warnings, n).
    """
    return _single(_structural_scan([y], x, w, null, config, None, mu), "J", config)


def _structural_scan(ys, x, w, null: NullSpec, config: RunConfig, designs: _Designs | None, mu=None, h0=None):
    """adaptive_scan of every outcome in ys on one y-free pass: (grid, results, warnings, sample), results as
    _candidate_pass gives them and sample as _checked_data does, with D_J taken on y - h0(x) at the checked x
    instead of the restricted residuals when h0 is given. designs is the sample's _Designs; None builds one."""
    null, config = _instance(null, NullSpec, "null"), _instance(config, RunConfig, "config")  # before the sample
    ys, x, w, mu, n = sample = _checked_data(ys, x, w, mu)
    h0 = None if h0 is None else h0(x)
    if x.ndim != 1:
        raise InputError(f"the structural statistic needs one regressor as a 1-d x, got x of shape {x.shape}")
    _check_test("structural", null, config)
    designs = _Designs(w) if designs is None else designs
    fit_warnings: list[str] = []

    def step(j: int):
        psi_spec = config.psi_spec(j, x if config.knot_rule == "quantile" else None)
        psi = eval_design(psi_spec, x)
        fit = fit_from_design(psi, designs.instrument(config, config.k_factor * j), mu)
        return j, _noise_level(psi_spec, j, n), fit.s_hat, (psi_spec, psi, fit)

    def visit(j: int, s_hat: float, built):
        psi_spec, psi, fit = built
        fit_warnings.extend(f"J={j}: {msg}" for msg in fit.warnings)
        try:
            rows = null.constraints(psi_spec) if null.kind == "shape" else None
            cone = None if rows is None else _Cone(rows.rows, fit.gram_weighted, fit.l_inv_t)
        except (InputError, NumericalError) as exc:
            raise type(exc)(f"candidate J={j}: {exc}") from exc
        return j, s_hat, psi, fit, rows, cone

    model = null.model if null.custom_design is None else null.custom_design
    outcomes = [partial(_structural_outcome, y=y, h0=h0, x=x, model=model) for y in ys]
    notices = _clamp_warnings(config, x=x, w=w)
    grid, results = _candidate_pass(n, config.grid, step, visit, outcomes, config.basis_min(), notices)
    return grid, results, notices + fit_warnings, sample


@np.errstate(over="ignore", invalid="ignore")  # an overflow reaches decide as a non-finite statistic
def _structural_outcome(factor, y, h0, x, model) -> _ScanEntry:
    """The part of a structural candidate that reads y: beta, u = y - Psi beta, the restricted fit (the cone of a
    shape null's rows, else the 2SLS of model on U_B), v_J on u and D_J on the restricted residuals, or on y - h0
    when h0 is given. factor is the visit's (j, s_hat, Psi_J, NpivFit, rows, cone), a shape null's rows and their
    cone factor, built once per candidate from the fit's own factor of Psi' Omega Psi; a parametric null's are None."""
    j, s_hat, psi, fit, rows, cone = factor
    beta = fit.coefficients(y)
    u = y - psi @ beta
    try:
        if cone is not None:
            beta_r, active = cone.project(beta)
            restricted, gamma = y - psi @ beta_r, gamma_hat(rows, active)
        else:
            rfit = fit_restricted_parametric(y, x, model, fit.q, fit.r)
            restricted, active, gamma = rfit.residuals_r, rfit.active_set, j
        s = fit.scaled_map  # formed fresh for this outcome, so v_J may scale it once D_J has read it
        r = restricted if h0 is None else y - h0
        d_stat = 0.0 if _numerically_zero(r, y) else compute_D(s, r)
        v_stat = 0.0 if _numerically_zero(u, y) else _vhat_scaling(s, u)
    except (InputError, NumericalError) as exc:
        raise type(exc)(f"candidate J={j}: {exc}") from exc
    _check_underflow(f"J={j}", y, D=(d_stat, r), v=(v_stat, u))
    return _ScanEntry(j=j, k=fit.r.shape[1], d_stat=d_stat, v_stat=v_stat, s_hat=s_hat, gamma=gamma,
                      n_active=len(active), center=gamma)


def decide(grid: CandidateGrid, entries, n: int, null: NullSpec, config: RunConfig,
           statistic: str = "structural", warnings: Sequence[str] = ()) -> TestReport:
    """Apply the level-alpha decision rule to scanned statistics, with alpha = config.alpha.

    This is the one verdict rule: the structural and image-space tests, the
    confidence set and the Monte Carlo runs in `sim` all call it. An
    image-space report's config names the dyadic grid its scan ran.
    """
    grid = _instance(grid, CandidateGrid, "grid")
    entries = _sequence(entries, "entries", grid.size)  # one per candidate
    n, warnings = _number(n, "n", _MIN_N, integer=True), _instance(warnings, (list, tuple), "warnings")
    null, config = _instance(null, NullSpec, "null"), _instance(config, RunConfig, "config")
    if _choice(statistic, "statistic", _STATISTICS) == "image-space":
        config = replace(config, grid="dyadic")
    alpha, size = config.alpha, grid.size
    records = []
    for e in entries:
        eta = eta_hat(alpha, size, e.gamma, e.center)
        if eta <= 0.0:
            at = (f"K={e.j} (alpha/{size} too large for chi-square df={e.gamma} centered at K={e.center})"
                  if statistic == "image-space" else f"J={e.j} (alpha/{size} too large for gamma={e.gamma})")
            raise InputError(f"critical value eta <= 0 at {at}; use a smaller alpha")
        if e.v_stat > 0.0:
            w_stat = n * e.d_stat / (eta * e.v_stat)
            p_value = chisq_sf(math.sqrt(e.center) * (n * e.d_stat / e.v_stat) + e.center, e.gamma)
        else:
            w_stat, p_value = (math.inf, 0.0) if e.d_stat > 0.0 else (0.0, 1.0)
        # W = inf is the defined limit of D > 0 over v = 0; any other non-finite number decides nothing
        if not (all(map(math.isfinite, (e.d_stat, e.v_stat, p_value))) and (math.isfinite(w_stat) or e.v_stat == 0.0)):
            raise NumericalError(
                f"non-finite statistic at J={e.j}: D={e.d_stat}, v={e.v_stat}, W={w_stat}, p={p_value}"
            )
        records.append(CandidateRecord(j=e.j, k=e.k, d_stat=e.d_stat, v_stat=e.v_stat, s_hat=e.s_hat, gamma=e.gamma,
                                       eta=eta, w_stat=w_stat, p_value=p_value, n_active=e.n_active))
    rejecting = [rec.j for rec in records if rec.w_stat > 1.0]
    reject = len(rejecting) > 0
    if reject:
        j_reported = min(rejecting)  # early stopping
        selected = tuple(rejecting)
    else:
        best = max(records, key=lambda rec: (rec.w_stat, -rec.j))
        j_reported = best.j
        selected = (best.j,)
    return TestReport(
        statistic=statistic,
        null=null.describe(),
        alpha=alpha,
        grid=grid,
        per_j=tuple(records),
        reject=reject,
        j_reported=j_reported,
        j_selected_set=selected,
        p_value=min(rec.p_value for rec in records),
        p_threshold=alpha / size,
        config=config.to_dict(),
        warnings=tuple(warnings),
    )


def adaptive_test(y, x, w, null: NullSpec, config: RunConfig | None = None, mu=None) -> TestReport:
    """Run the adaptive restriction test at level config.alpha."""
    config = RunConfig() if config is None else config
    grid, entries, warn, n = adaptive_scan(y, x, w, null, config, mu)
    return decide(grid, entries, n, null, config, warnings=warn)


def _candidate_on_sample(candidate, x, config: RunConfig, null: NullSpec):
    """Fitted values of the hypothesized function at the checked sample x, plus a cone feasibility check."""
    if callable(candidate):
        values = _real_floats(candidate(x), "candidate function values")
        if null.kind == "shape" and null.shape in _SHAPES:  # a built-in shape: its derivative's sign, by differences
            f = _real_floats(candidate(np.linspace(*config.support, 1001)), "candidate function values")
            if f.shape != (1001,):
                raise InputError(f"candidate function must return one value per point, got shape {f.shape} on "
                                 "1001 grid points")
            deriv, sign = _SHAPES[null.shape]
            if np.any(sign * np.diff(f, deriv) > 1e-8 * float(np.max(np.abs(f)))):
                raise InputError(f"candidate function violates the {null.shape} restriction")
    elif isinstance(candidate, tuple) and len(candidate) == 2:
        spec = _instance(candidate[1], BasisSpec, "candidate spec")
        coeffs = _real_floats(candidate[0], "candidate coefficients")
        if coeffs.shape != (spec.dim,):
            raise InputError(f"candidate coefficients must have shape ({spec.dim},), got {coeffs.shape}")
        if null.kind == "shape":  # the cone's own rule: the rows at unit norm, ACTIVE_TOL |c|
            m = null.constraints(spec)
            if np.any(_unit_rows(m.rows) @ coeffs > ACTIVE_TOL * math.hypot(*coeffs)):
                raise InputError(f"candidate coefficients violate the {m.kind} cone restriction")
        values = eval_design(spec, x) @ coeffs
    else:
        values = _real_floats(candidate, "candidate fitted values")
    if values.shape != (x.shape[0],):
        raise InputError("candidate must be callable, a (coeffs, BasisSpec) pair, or a vector of fitted values, "
                         f"with one value per observation: need shape ({x.shape[0]},), got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise InputError("candidate values are non-finite on the sample")
    return values


def cs_contains(candidate, y, x, w, config: RunConfig | None = None, null: NullSpec | None = None, mu=None):
    """Membership of a hypothesized function in the level-config.alpha L2 confidence set.

    Returns (contained, binding_j, report-like dict with the scan's
    warnings). The verdict is the test's own (decide) on a scan whose
    leave-one-out statistic is taken on the candidate's residuals y - h0 in
    place of the restricted ones; the binding J is the smallest violated
    candidate. A candidate violating a cone null is an input error.
    """
    config = RunConfig() if config is None else config
    null = NullSpec(kind="parametric", model="linear") if null is None else null
    h0 = partial(_candidate_on_sample, candidate, config=config, null=null)
    grid, entries, notices, n = _single(_structural_scan([y], x, w, null, config, None, mu, h0=h0), "J", config)
    report = decide(grid, entries, n, null, config)
    per_j = [{"J": rec.j, "D_candidate": rec.d_stat, "v": rec.v_stat, "eta": rec.eta, "contained": rec.w_stat <= 1.0}
             for rec in report.per_j]
    binding = report.j_reported if report.reject else None
    return not report.reject, binding, {"alpha": config.alpha, "J_list": list(grid.j_list), "per_J": per_j,
                                        "warnings": notices}


@lru_cache(maxsize=64)
def _image_space_table(basis: str, support: tuple[float, float], n: int, d_w: int, k_min: int):
    """(rows, knots) of the image-space stability scan on n points of a d_w-dimensional w, built once per process.

    rows[k], k = 0...max(hard_cap, k_min), is (dim, noise, per_dim) of the instrument design for k: its realized
    dimension, noise level and per-coordinate factor dimension; the scan's fallback singleton {k_min} may lie
    above the hard cap. knots maps each such per_dim of a 1-d B-spline instrument to its equispaced knot vector
    on support, on which an equispaced step counts its supports; it is None for another family or a tensor.
    """
    config = RunConfig(basis=basis, support=support)
    rows = []
    for k in range(max(_res_parameters(n)[2], k_min) + 1):
        dim, per_dim = config.instrument_dim(k, d_w), config.instrument_per_dim(k, d_w)
        rows.append((dim, _noise_level(config.psi_spec(per_dim), dim, n), per_dim))
    if config.family != "bspline" or d_w > 1:
        return tuple(rows), None
    return tuple(rows), {per_dim: config.psi_spec(per_dim).knot_vector() for *_, per_dim in rows}


def _image_space_step(config: RunConfig, designs: _Designs, n: int, k_min: int):
    """step(k) of the image-space stability scan on designs.w from k_min: (dim, noise, s_K, B) of the instrument
    design for k.

    The scan steps far more dimensions than it visits, and a step only asks whether the noise level
    reaches s_K = lambda_max(B'B/n)^{-1/2}. A B-spline design, and a tensor of B-spline factors, has
    B >= 0 and unit row sums, so by Gershgorin lambda_max(B'B/n) <= max_j (column sum j of B) / n. Each
    kind of design has one certificate of that maximum. A 1-d B-spline's is max_j N_j, N_j the number of
    points in the support [t_j, t_{j+order}] of B-spline j on its knot vector t, the table's equispaced one
    or its spec's quantile one (a tied one raises its TiedKnotsError there), counted with one searchsorted
    on w, clamped and sorted once per scan. A tensor's is the column sums themselves: for a 2-d w they are
    the entries of B_1'B_2, formed from the n x per_dim factors. As 0 <= B <= 1, each is at most either
    factor's support count, so the counts would certify no step more. A step's dim, noise level and factor
    dimension come from the per-process _image_space_table. A step whose noise stays below the bound
    returns (dim, noise, None, None): it builds no n x K design and computes no s_K, and a candidate's visit
    builds B and reads s_K = sqrt(n) / s_max(B). Any other step (cosine, power, or uncertified) forms B'B
    for lambda_max only and factors no design. A 2-d w rounds k up to the next per_dim^2, so a step whose
    realized dim repeats the last one returns that step unchanged. In one 4-replication supp-D call at
    n = 5000, xi = 0.5, every step of either design is certified: the scans build only their candidates'
    designs and call no eigvalsh.
    """
    w = designs.w
    rows, knots = _image_space_table(config.basis, config.support, n, w.shape[1], k_min)
    points = None if knots is None else np.sort(np.clip(w.ravel(), *config.support))
    last: dict[int, tuple] = {}  # realized dim -> (dim, noise, s, B) of the last step

    def count(t: np.ndarray) -> int:
        # x <= t exactly when x < the next float above t, so one search finds both ends of every support
        found = np.searchsorted(points, np.concatenate([t, np.nextafter(t, np.inf)]))
        return int(np.max(found[t.size + config.order :] - found[: t.size - config.order]))

    def step(k: int):
        dim, noise, per_dim = rows[k]
        if dim in last:
            return last[dim]
        last.clear()  # released before the next design is built
        if points is not None:  # a 1-d B-spline: its support counts
            bound = count(config.instrument_specs(k, w)[0].knot_vector() if config.knot_rule == "quantile"
                          else knots[per_dim])
        elif config.family == "bspline":  # a tensor: its column sums
            factors = designs.factors(config.instrument_specs(k, w))
            bound = float(np.max(_tensor_product(factors[:-1]).T @ factors[-1]))
        else:  # cosine or power: no certificate
            bound = math.inf
        # the margin covers rounding in B's unit row sums and in the exact step's eigvalsh
        if noise < math.sqrt(n / bound) * (1.0 - 1e-9):
            last[dim] = (dim, noise, None, None)
            return last[dim]
        b = designs.instrument(config, k)
        gb = b.T @ b / n
        evals = _lapack(np.linalg.eigvalsh, 0.5 * (gb + gb.T))
        last[dim] = (b.shape[1], noise, 1.0 / math.sqrt(float(evals[-1])), b)
        return last[dim]

    return step


def _image_space_statistics(q: np.ndarray, r_b: np.ndarray, r: np.ndarray) -> tuple[float, float]:
    """(D_K, v_K) of residuals r on the orthonormal instrument basis U_B = q r_b, from one K x K gram.

    With C = U_B' diag(r^2) U_B = r_b' (q o r)'(q o r) r_b and t = U_B' r = r_b'(q'r), compute_D and
    compute_vhat on S = U_B' are D = (|t|^2 - tr C) / (n - 1) and v = ||C||_F; no n x K basis is formed.
    """
    e = q * r[:, None]  # q is shared by every outcome of the pass, so it is never scaled in place
    c = r_b.T @ (e.T @ e) @ r_b
    t = r_b.T @ (q.T @ r)
    return (float(t @ t) - float(np.trace(c))) / (r.shape[0] - 1), frobenius_norm(c)


def image_space_scan(y, x, w, null: NullSpec, config: RunConfig):
    """Alpha-free part of the instrument-space test: grid over K plus statistics.

    The statistic projects null-restricted residuals on the instrument sieve
    itself; the candidate set scans the instrument dimension K with the dyadic
    rule (whatever config.grid says) and the stability measure
    s_min((B'B/n)^{-1/2}), and the chi-square calibration uses K degrees of
    freedom. Returns (grid, entries, warnings, n), as adaptive_scan does: a
    candidate's y-free factor is U_B = q r_b, and _image_space_outcome reads y.
    """
    return _single(_image_space_scan([y], x, w, null, config, None), "K", config)


def _image_space_scan(ys, x, w, null: NullSpec, config: RunConfig, designs: _Designs | None):
    """image_space_scan of every outcome in ys on one y-free pass: (grid, results, warnings, sample), results as
    _candidate_pass gives them, sample as _checked_data does. designs is the sample's _Designs; None builds one."""
    null, config = _instance(null, NullSpec, "null"), _instance(config, RunConfig, "config")
    _check_test("image-space", null, config)
    ys, x, w, _, n = sample = _checked_data(ys, x, w, None)
    model = null.model if null.custom_design is None else null.custom_design
    designs = _Designs(w) if designs is None else designs

    def visit(realized: int, smin: float | None, b: np.ndarray | None):
        try:  # b is None where a certified step built no design
            q, r_b, s_b = orthonormal_range(designs.instrument(config, realized) if b is None else b)
        except (InputError, NumericalError) as exc:
            raise type(exc)(f"candidate K={realized}: {exc}") from exc
        return realized, math.sqrt(n) / float(s_b[0]) if smin is None else smin, q, r_b

    z, _ = parametric_design(x, model)
    # K below the null's parameter count leaves the restricted fit unidentified
    k_min = max(config.basis_min(), z.shape[1])
    outcomes = [partial(_image_space_outcome, y=y, x=x, model=model) for y in ys]
    notices = _clamp_warnings(config, w=w)
    grid, results = _candidate_pass(n, "dyadic", _image_space_step(config, designs, n, k_min), visit, outcomes, k_min,
                                    notices)
    return grid, results, notices, sample


@np.errstate(over="ignore", invalid="ignore")  # an overflow reaches decide as a non-finite statistic
def _image_space_outcome(factor, y, x, model) -> _ScanEntry:
    """The part of an image-space candidate that reads y: the 2SLS of model on U_B = q r_b, and D_K and v_K of
    its residuals. factor is the visit's (K, s_K, q, r_b)."""
    k, s_hat, q, r_b = factor
    rfit = fit_restricted_parametric(y, x, model, q, r_b)
    r = rfit.residuals_r
    d_stat, v_stat = (0.0, 0.0) if _numerically_zero(r, y) else _image_space_statistics(q, r_b, r)
    _check_underflow(f"K={k}", y, D=(d_stat, r), v=(v_stat, r))
    # chi-square df nets out the parameters the restricted fit consumed
    # inside the instrument projection; centering stays at K
    return _ScanEntry(j=k, k=k, d_stat=d_stat, v_stat=v_stat, s_hat=s_hat, gamma=max(1, k - rfit.beta_r.size),
                      n_active=0, center=k)


def image_space_test(y, x, w, model, config: RunConfig | None = None) -> TestReport:
    """Run the adaptive instrument-space test of a parametric null at level config.alpha."""
    config = RunConfig() if config is None else config
    null = NullSpec(kind="parametric", model=model if isinstance(model, str) else None,
                    custom_design=None if isinstance(model, str) else model)
    grid, entries, warn, n = image_space_scan(y, x, w, null, config)
    return decide(grid, entries, n, null, config, statistic="image-space", warnings=warn)
