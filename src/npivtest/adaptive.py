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
from numbers import Integral, Real
from typing import Callable, ClassVar, Sequence

import numpy as np

from .basis import (_KNOT_RULES, BasisSpec, ConstraintMatrix, _tensor_product, deriv_constraints, eval_design,
                    min_dim, zeta)
from .errors import InputError, NumericalError, SingularGramError, SingularRegressorGramError
from .linalg import _lapack, frobenius_norm, orthonormal_range
from .npiv import _weights, fit_from_design, fit_restricted_cone, fit_restricted_parametric, parametric_design
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

_SHAPE_KINDS = ("decreasing", "increasing", "convex", "concave")
_MODEL_KINDS = ("linear", "quadratic")
_TINY = np.finfo(float).tiny  # smallest normal float
_BASIS_NAMES = {
    "bspline2": ("bspline", 3),
    "bspline3": ("bspline", 4),
    "cosine": ("cosine", 0),
    "power": ("power", 0),
}


@dataclass(frozen=True)
class NullSpec:
    """Null hypothesis: a polyhedral-cone shape restriction or a parametric form."""

    kind: str  # 'shape' | 'parametric'
    shape: str | None = None
    model: str | None = None
    custom_rows: Callable[[BasisSpec], ConstraintMatrix] | None = field(default=None, compare=False)
    custom_design: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind == "shape":
            if self.shape not in _SHAPE_KINDS and self.custom_rows is None:
                raise InputError(f"shape null needs shape in {_SHAPE_KINDS} or custom rows, got {self.shape!r}")
        elif self.kind == "parametric":
            if self.model not in _MODEL_KINDS and self.custom_design is None:
                raise InputError(f"parametric null needs model in {_MODEL_KINDS} or a custom design")
        else:
            raise InputError(f"null kind must be 'shape' or 'parametric', got {self.kind!r}")

    @staticmethod
    def from_name(name: str) -> "NullSpec":
        if name in _SHAPE_KINDS:
            return NullSpec(kind="shape", shape=name)
        if name in _MODEL_KINDS:
            return NullSpec(kind="parametric", model=name)
        raise InputError(f"unknown null {name!r}; expected one of {_SHAPE_KINDS + _MODEL_KINDS}")

    def describe(self) -> str:
        return self.shape if self.kind == "shape" else f"parametric:{self.model}"

    def check_image_space(self) -> None:
        """The image-space statistic fits a parametric null on the instrument basis."""
        if self.kind != "parametric":
            raise InputError(f"the image-space statistic needs a parametric null, got {self.describe()!r}")

    def constraints(self, spec: BasisSpec) -> ConstraintMatrix:
        if self.kind != "shape":
            raise InputError("constraints are only defined for shape nulls")
        if self.custom_rows is not None:
            return self.custom_rows(spec)
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
        for name, kind in (("alpha", Real), ("k_factor", Integral)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise InputError(f"{name} must be {'an integer' if kind is Integral else 'a number'}, got {value!r}")
        if not 0.0 < self.alpha < 1.0:
            raise InputError(f"alpha must be in (0, 1), got {self.alpha}")
        if not isinstance(self.basis, str) or self.basis not in _BASIS_NAMES:
            raise InputError(f"unknown basis {self.basis!r}; expected one of {sorted(_BASIS_NAMES)}")
        if self.knot_rule not in _KNOT_RULES:
            raise InputError(f"unknown knot rule {self.knot_rule!r}")
        if self.k_factor < 2:
            raise InputError(f"k_factor must be >= 2, got {self.k_factor}")
        support = tuple(self.support) if isinstance(self.support, (tuple, list)) else ()
        if len(support) != 2 or not all(isinstance(v, Real) and math.isfinite(v) for v in support) \
                or support[0] >= support[1]:
            raise InputError(f"support must be a finite interval [lo, hi] with lo < hi, got {self.support!r}")
        object.__setattr__(self, "support", support)
        if isinstance(self.grid, str):
            if self.grid not in ("dyadic", "knots"):
                raise InputError(f"grid mode must be 'dyadic', 'knots', or an explicit list, got {self.grid!r}")
        else:
            bad = InputError(f"explicit grid must be a list of dims, got {self.grid!r}")
            try:
                lst = tuple(self.grid)
            except TypeError:
                raise bad from None
            if any(isinstance(j, bool) or not isinstance(j, Integral) for j in lst):  # k_factor's rule, per entry
                raise bad
            if len(lst) == 0 or any(j < 1 for j in lst):
                raise InputError(f"explicit grid must be a non-empty list of positive dims, got {self.grid}")
            object.__setattr__(self, "grid", tuple(sorted({int(j) for j in lst})))

    @property
    def family(self) -> str:
        return _BASIS_NAMES[self.basis][0]

    @property
    def order(self) -> int:
        return _BASIS_NAMES[self.basis][1]

    def psi_spec(self, j: int, knot_data=None) -> BasisSpec:
        return BasisSpec(self.family, j, max(self.order, 2), self.support, self.knot_rule, knot_data)

    def instrument_dim(self, k_target: int, d_w: int) -> int:
        """Realized dimension of the instrument design for k_target: the smallest per_dim^d_w >= k_target.

        per_dim is at least the basis minimum; with d_w = 1 this is max(k_target, basis minimum).
        """
        base = max(k_target, self.basis_min())
        per_dim = max(self.basis_min(), math.ceil(base ** (1.0 / d_w)))
        while per_dim**d_w < base:
            per_dim += 1
        return per_dim**d_w

    def instrument_specs(self, k_target: int, w: np.ndarray) -> list[BasisSpec]:
        """One basis spec per coordinate of the instrument sample w, of dimension instrument_dim(k_target, d_w)
        together: a d_w-dimensional instrument gets the tensor product of d_w equal factors."""
        knot_data = w if self.knot_rule == "quantile" else None
        if w.ndim == 1:
            return [self.psi_spec(self.instrument_dim(k_target, 1), knot_data)]
        d_w = w.shape[1]
        per_dim = round(self.instrument_dim(k_target, d_w) ** (1.0 / d_w))
        return [self.psi_spec(per_dim, None if knot_data is None else knot_data[:, i]) for i in range(d_w)]

    def basis_min(self) -> int:
        return min_dim(self)

    def check_explicit_grid(self) -> None:
        """An explicit grid starts at the basis minimum or above it."""
        if isinstance(self.grid, tuple) and self.grid[0] < self.basis_min():
            raise InputError(f"explicit grid entry J={self.grid[0]} is below the basis minimum {self.basis_min()}")

    def check_null_basis(self, null: NullSpec) -> None:
        """A shape null's derivative constraints need a B-spline basis."""
        if null.kind == "shape" and null.custom_rows is None and self.family != "bspline":
            raise InputError(f"the {null.shape} null's derivative constraints require a B-spline basis, "
                             f"got {self.basis!r}")

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


def _from_fields(cls, d: dict, what: str):
    """cls built from d, a file's JSON object: schema_version, where d names it, must be 1, and every other key
    must be a field of cls. what names the file kind in the errors."""
    d = dict(d)
    version = d.pop("schema_version", 1)
    if version != 1:
        raise InputError(f"unsupported {what} schema version {version}")
    unknown = set(d) - set(cls.__dataclass_fields__)
    if unknown:
        raise InputError(f"unknown {what} keys: {sorted(unknown)}")
    return cls(**d)


@dataclass(frozen=True)
class CandidateGrid:
    """Candidate sieve dimensions with their stability diagnostics.

    shat maps each stepped dimension to its stability measure s: every visited candidate's, and every
    non-candidate's the scan computed. A B-spline image-space step that certifies noise < s from
    knot-interval counts computes no s, so such a non-candidate has no entry.
    """

    mode: str
    j_underbar: int
    j_max_exp: int
    hard_cap: int
    j_max_hat: int
    j_list: tuple[int, ...]
    shat: dict[int, float]
    fallback: bool = False
    warnings: tuple[str, ...] = ()

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


def _check_underflow(j: int, y: np.ndarray, **stats: tuple[float, np.ndarray]) -> None:
    """Raise for a statistic (name=(value, its residuals)) that is zero or subnormal although its residuals
    are not numerically zero: a square underflowed on the way, and a decision from it would be silent."""
    for name, (value, residuals) in stats.items():
        if abs(value) < _TINY and not _numerically_zero(residuals, y):
            raise NumericalError(f"candidate J={j}: {name}={value} underflowed from residuals that are not "
                                 "numerically zero; rescale y")


def _res_parameters(n: int) -> tuple[int, int, int]:
    if n < 20:
        raise InputError(f"need at least 20 observations, got {n}")
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


def _checked_data(ys, x, w):
    """(ys, x, w, n): each outcome of ys, x and w as float arrays sharing n finite observations."""
    ys = [np.asarray(y, dtype=float) for y in ys]
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    n = ys[0].shape[0]
    if any(y.ndim != 1 or y.shape[0] != n for y in ys) or x.shape[0] != n or w.shape[0] != n:
        raise InputError("y, x, w must share the number of observations")
    if not (all(np.all(np.isfinite(y)) for y in ys) and np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
        raise InputError("data contains non-finite values")
    return ys, x, w, n


def _single(grid, results, warnings, n):
    """A public scan's (grid, entries, warnings, n) of its one outcome; the error that ended the pass is raised."""
    (entries,) = results
    if isinstance(entries, NumericalError):
        raise entries
    return grid, entries, warnings, n


class _Designs:
    """The instrument designs of one sample w, for every candidate pass on it.

    The one-dimensional factors of a tensor instrument (a 2-d w) are kept, read-only, as long as the owner
    holds the object, one public scan call or one Monte Carlo replication: the stability steps, the
    candidates and the tensors of every pass on w read them. A design B_K is built on each request, and
    its user factors it, so a pass holds only the designs and factor of the candidate it is at.
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
        """B_K: config's instrument design for k_target at w, the tensor product of the kept factors for a 2-d w."""
        specs = config.instrument_specs(k_target, self.w)
        if self.w.ndim == 1:
            return eval_design(specs[0], self.w)
        return _tensor_product(self.factors(specs))


def _candidate_pass(n: int, config: RunConfig, step, visit, outcomes, j_min: int):
    """(grid, results): candidate dimensions via the exponential scan, the knot scan, or an explicit list, and
    the statistics of every outcome on them.

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

    results[i] is outcome i's entries, or the NumericalError that ended it:
    an outcome's own error ends that outcome alone, and an error of the
    y-free pass ends every outcome still running. The pass stops when no
    outcome is running, and grid is then None.
    """
    j_under, j_max_exp, hard_cap = _res_parameters(n)
    shat: dict[int, float] = {}
    warnings_list: list[str] = []
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

    config.check_explicit_grid()
    mode = "explicit" if isinstance(config.grid, tuple) else config.grid
    try:
        if mode == "explicit":
            for j in config.grid:
                record(*step(j))
            j_max_hat = config.grid[-1]
        else:
            # the rule's candidates are the ones that do not exceed the stability bound J_max_hat
            rule = _dyadic(j_under, j_max_exp, j_min) if mode == "dyadic" else range(j_min, hard_cap + 1)
            scan_start = max(j_under + 1, j_min)
            for j in rule:
                if j < scan_start and j <= hard_cap:  # below the scan, hence below J_max_hat
                    record(*step(j))
            # data-driven stability bound: first J where the noise level overtakes s_J
            j_max_hat = hard_cap
            for j in range(scan_start, hard_cap + 1):
                try:
                    stepped = step(j)
                except NumericalError as exc:
                    warnings_list.append(f"stability scan stopped at J={j}: {exc}")
                    j_max_hat = max(scan_start, j - 1)
                    if j <= j_max_hat and j in rule:  # J_max_hat keeps this candidate, which has no s_J
                        raise
                    break
                stop = record(*stepped, candidate=j in rule)
                del stepped  # released before the next J's designs are built
                if stop:
                    j_max_hat = j
                    break

        fallback = not j_list
        if fallback:
            warnings_list.append(
                f"J_max_hat={j_max_hat} leaves no admissible candidate; falling back to the singleton {{{j_min}}}"
            )
            record(*step(j_min))
    except NumericalError as exc:  # a y-free error, or the last running outcome's: the pass ends
        return None, [exc if isinstance(res, list) else res for res in results]
    return CandidateGrid(mode=mode, j_underbar=j_under, j_max_exp=j_max_exp, hard_cap=hard_cap, j_max_hat=j_max_hat,
                         j_list=tuple(j_list), shat=shat, fallback=fallback, warnings=tuple(warnings_list)), results


def _map_and_residuals(scaled_map, r) -> tuple[np.ndarray, np.ndarray]:
    scaled_map = np.asarray(scaled_map, dtype=float)
    r = np.asarray(r, dtype=float)
    if scaled_map.ndim != 2 or r.shape != (scaled_map.shape[1],):
        raise InputError(f"need a 2-d map and one residual per column, got {scaled_map.shape} and {r.shape}")
    return scaled_map, r


def compute_D(scaled_map, r) -> float:
    """Centered leave-one-out quadratic form (|S r|^2 - sum_i r_i^2 |S_i|^2) / (n - 1); may be negative.

    S is the map compute_vhat takes. With S = NpivFit.scaled_map = L'C, which fit_from_design builds from
    (Psi, B, mu) alone, this is 2/(n(n-1)) sum_{i<i'} r_i r_{i'} [Q' Omega Q]_{i i'}, Q = sqrt(n) Psi C; the
    structural statistic passes the restricted residuals as r.
    """
    scaled_map, r = _map_and_residuals(scaled_map, r)
    t = scaled_map @ r
    loo = float(np.sum(r * r * np.sum(scaled_map**2, axis=0)))
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
    e = scaled_map * u[None, :]
    return frobenius_norm(e @ e.T)


def gamma_hat(m: ConstraintMatrix, active_set) -> int:
    """Chi-square degrees of freedom of a cone null: the rank of the active constraint rows, at least 1."""
    if len(active_set) == 0:
        return 1
    return max(1, int(_lapack(np.linalg.matrix_rank, m.rows[active_set])))


def eta_hat(alpha: float, grid_size: int, gamma: int, center: int | None = None) -> float:
    """Bonferroni-adjusted chi-square critical value with gamma degrees of freedom, centered at center (gamma)."""
    if grid_size < 1:
        raise InputError(f"grid_size must be >= 1, got {grid_size}")
    center = gamma if center is None else center
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
    return _single(*_structural_scan([y], x, w, null, config, None, mu))


def _structural_scan(ys, x, w, null: NullSpec, config: RunConfig, designs: _Designs | None, mu=None, h0=None):
    """adaptive_scan of every outcome in ys on one y-free pass: (grid, results, warnings, n), results as
    _candidate_pass gives them, with D_J taken on y - h0 instead of the restricted residuals when h0 is given.
    designs is the sample's _Designs; None builds one for this call."""
    ys, x, w, n = _checked_data(ys, x, w)
    if x.ndim != 1:
        raise InputError(f"the structural statistic needs one regressor column, got x of shape {x.shape}")
    config.check_null_basis(null)
    mu = _weights(mu, n)
    designs = _Designs(w) if designs is None else designs
    knot_data = x if config.knot_rule == "quantile" else None
    scanned, j_min = not isinstance(config.grid, tuple), config.basis_min()
    fit_warnings: list[str] = []

    def step(j: int):
        psi_spec = config.psi_spec(j, knot_data)
        psi = eval_design(psi_spec, x)
        b = designs.instrument(config, config.k_factor * j)
        k = b.shape[1]
        try:
            if scanned and k >= n:  # B'B has rank at most n < K, which ends a scanned grid's stability scan
                raise SingularGramError(f"instrument gram B'B is numerically singular (dim {k})")
            fit = fit_from_design(psi, b, mu)
        except SingularGramError as exc:
            if scanned and j == j_min:  # no candidate is left: the sample is too small for the basis
                raise InputError(f"sample too small for the {config.basis} basis: its minimum candidate J={j} "
                                 f"needs K={k} instrument columns, whose gram B'B is singular at n={n}") from exc
            raise
        except SingularRegressorGramError as exc:
            if scanned and j == j_min:  # no candidate is left: x has too few distinct values for the basis
                raise InputError(f"regressor sample too degenerate for the {config.basis} basis: the weighted gram "
                                 f"Psi'Omega Psi of its minimum candidate J={j} is singular at n={n} with "
                                 f"{np.unique(x[mu > 0]).size} distinct x value(s)") from exc
            raise
        return j, _noise_level(psi_spec, j, n), fit.s_hat, (psi_spec, psi, fit)

    def visit(j: int, s_hat: float, built):
        psi_spec, psi, fit = built
        fit_warnings.extend(f"J={j}: {msg}" for msg in fit.warnings)
        try:
            rows = null.constraints(psi_spec) if null.kind == "shape" else None
        except (InputError, NumericalError) as exc:
            raise type(exc)(f"candidate J={j}: {exc}") from exc
        return j, s_hat, psi, fit, rows

    model = null.model if null.custom_design is None else null.custom_design
    outcomes = [partial(_structural_outcome, y=y, h0=h0, x=x, model=model) for y in ys]
    grid, results = _candidate_pass(n, config, step, visit, outcomes, j_min)
    return grid, results, [*_clamp_warnings(config, x=x, w=w), *(grid.warnings if grid else ()), *fit_warnings], n


@np.errstate(over="ignore", invalid="ignore")  # an overflow reaches decide as a non-finite statistic
def _structural_outcome(factor, y, h0, x, model) -> _ScanEntry:
    """The part of a structural candidate that reads y: beta, u = y - Psi beta, the restricted fit (the cone of a
    shape null's rows, else the 2SLS of model on U_B), v_J on u and D_J on the restricted residuals, or on y - h0
    when h0 is given. factor is the visit's (j, s_hat, Psi_J, NpivFit, rows); a parametric null's rows are None."""
    j, s_hat, psi, fit, rows = factor
    beta = fit.coefficients(y)
    u = y - psi @ beta
    try:
        if rows is not None:
            rfit = fit_restricted_cone(fit, rows, beta, psi, y)
            gamma = gamma_hat(rows, rfit.active_set)
        else:
            rfit = fit_restricted_parametric(y, x, model, fit.q, fit.r)
            gamma = j
        s = fit.scaled_map
        r = rfit.residuals_r if h0 is None else y - h0
        d_stat = 0.0 if _numerically_zero(r, y) else compute_D(s, r)
        v_stat = 0.0 if _numerically_zero(u, y) else compute_vhat(s, u)
    except (InputError, NumericalError) as exc:
        raise type(exc)(f"candidate J={j}: {exc}") from exc
    _check_underflow(j, y, D=(d_stat, r), v=(v_stat, u))
    return _ScanEntry(j=j, k=fit.k_dim, d_stat=d_stat, v_stat=v_stat, s_hat=s_hat, gamma=gamma,
                      n_active=len(rfit.active_set), center=gamma)


def decide(grid: CandidateGrid, entries, n: int, null: NullSpec, config: RunConfig,
           statistic: str = "structural", warnings: Sequence[str] = ()) -> TestReport:
    """Apply the level-alpha decision rule to scanned statistics, with alpha = config.alpha.

    This is the one verdict rule: the structural and image-space tests, the
    confidence set and the Monte Carlo runs in `sim` all call it.
    """
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
    """Fitted values of the hypothesized function at the sample, plus a cone feasibility check."""
    x = np.asarray(x, dtype=float)
    if callable(candidate):
        values = np.asarray(candidate(x), dtype=float)
        if null.kind == "shape" and null.shape in _SHAPE_KINDS:
            lo, hi = config.support
            grid_x = np.linspace(lo, hi, 1001)
            f = np.asarray(candidate(grid_x), dtype=float)
            scale = 1e-8 * float(np.max(np.abs(f)))
            diffs = np.diff(f) if null.shape in ("decreasing", "increasing") else np.diff(f, 2)
            sign = 1.0 if null.shape in ("decreasing", "concave") else -1.0
            if np.any(sign * diffs > scale):
                raise InputError(f"candidate function violates the {null.shape} restriction")
    elif isinstance(candidate, tuple) and len(candidate) == 2:
        coeffs, spec = candidate
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (spec.dim,):
            raise InputError(f"candidate coefficients must have shape ({spec.dim},), got {coeffs.shape}")
        if null.kind == "shape":
            m = null.constraints(spec)
            slack = m.rows @ coeffs
            tol = 1e-8 * np.linalg.norm(coeffs) * np.linalg.norm(m.rows, axis=1)
            if np.any(slack > tol):
                raise InputError(f"candidate coefficients violate the {m.kind} cone restriction")
        values = eval_design(spec, x) @ coeffs
    else:
        values = np.asarray(candidate, dtype=float)
        if values.shape != (x.shape[0],):
            raise InputError(
                "candidate must be callable, a (coeffs, BasisSpec) pair, or a vector of fitted values"
            )
    if not np.all(np.isfinite(values)):
        raise InputError("candidate values are non-finite on the sample")
    return values


def cs_contains(candidate, y, x, w, config: RunConfig | None = None, null: NullSpec | None = None, mu=None):
    """Membership of a hypothesized function in the level-config.alpha L2 confidence set.

    Returns (contained, binding_j, report-like dict). The verdict is the
    test's own (decide) on a scan whose leave-one-out statistic is taken on
    the candidate's residuals y - h0 in place of the restricted ones; the
    binding J is the smallest violated candidate. A candidate violating a
    cone null is an input error.
    """
    config = RunConfig() if config is None else config
    null = NullSpec(kind="parametric", model="linear") if null is None else null
    values = _candidate_on_sample(candidate, x, config, null)
    grid, entries, _, n = _single(*_structural_scan([y], x, w, null, config, None, mu, h0=values))
    report = decide(grid, entries, n, null, config)
    per_j = [{"J": rec.j, "D_candidate": rec.d_stat, "v": rec.v_stat, "eta": rec.eta, "contained": rec.w_stat <= 1.0}
             for rec in report.per_j]
    binding = report.j_reported if report.reject else None
    return not report.reject, binding, {"alpha": config.alpha, "J_list": list(grid.j_list), "per_J": per_j}


@lru_cache(maxsize=64)
def _image_space_table(basis: str, support: tuple[float, float], n: int, d_w: int, k_min: int):
    """(rows, knots) of the image-space stability scan on n points of a d_w-dimensional w, built once per process.

    rows[k], k = 0...max(hard_cap, k_min), is (dim, noise, per_dim) of the instrument design for k: its realized
    dimension, noise level and per-coordinate factor dimension; the scan's fallback singleton {k_min} may lie
    above the hard cap. knots maps each such per_dim to its equispaced B-spline knot vector on support; it is
    None for another family.
    """
    config = RunConfig(basis=basis, support=support)
    rows = []
    for k in range(max(_res_parameters(n)[2], k_min) + 1):
        dim = config.instrument_dim(k, d_w)
        per_dim = round(dim ** (1.0 / d_w))
        rows.append((dim, _noise_level([config.psi_spec(per_dim)] * d_w, dim, n), per_dim))
    if config.family != "bspline":
        return tuple(rows), None
    return tuple(rows), {per_dim: config.psi_spec(per_dim).knot_vector() for *_, per_dim in rows}


def _support_counts(knots: dict[int, np.ndarray], order: int, x_sorted: np.ndarray) -> dict[int, int]:
    """max_j N_j per key of knots, N_j the number of the sorted points x_sorted in the support [t_j, t_{j+order}]
    of B-spline j on that knot vector t, from one searchsorted over the concatenated knot vectors.

    A B-spline design B at points inside the support has B >= 0 and rows summing to one, so by Gershgorin
    lambda_max(B'B/n) <= max_j (1/n) sum_i B_j(x_i) <= max_j N_j / n. Clamp the points before sorting them.
    """
    if not knots:
        return {}
    t = np.concatenate(list(knots.values()))
    # x <= t exactly when x < the next float above t, so one search finds both ends of every support
    found = np.searchsorted(x_sorted, np.concatenate([t, np.nextafter(t, np.inf)]))
    first, last = found[: t.size], found[t.size :]
    lengths = [v.size for v in knots.values()]
    # an index j that runs past its knot vector pairs a knot at hi with one at lo of the next clamped vector,
    # so its count is at most 0 and never exceeds a B-spline's
    counts = np.maximum.reduceat(last[order:] - first[:-order], np.cumsum(lengths) - lengths)
    return dict(zip(knots, counts.tolist()))


def _coordinate_counts(config: RunConfig, knots: dict[int, np.ndarray], c: np.ndarray) -> dict:
    """per_dim -> max_j N_j of coordinate c of w for each per_dim of knots, the table's equispaced knot
    vectors; a quantile rule counts on c's own knots instead, and a per_dim whose quantile knots have too
    many ties maps to the InputError its design would raise."""
    errors = {}
    if config.knot_rule == "quantile":
        own = {}
        for per_dim in knots:
            try:
                own[per_dim] = config.psi_spec(per_dim, c).knot_vector()
            except InputError as exc:
                errors[per_dim] = exc
        knots = own
    return {**_support_counts(knots, config.order, np.sort(np.clip(c, *config.support))), **errors}


def _image_space_step(config: RunConfig, designs: _Designs, n: int, k_min: int):
    """step(k) of the image-space stability scan on designs.w from k_min: (dim, noise, s_K, B) of the instrument
    design for k.

    The scan steps far more dimensions than it visits, and a step only asks whether the noise level
    reaches s_K = lambda_max(B'B/n)^{-1/2}. A B-spline design, and a tensor of B-spline factors, has
    B >= 0 and unit row sums, so by Gershgorin lambda_max(B'B/n) <= max_j (column sum j of B) / n. A
    column of B is supported inside each of its factors' supports, so that is at most
    min_d max_j N_{d,j} / n, N_{d,j} the knot-interval counts of coordinate d's sorted sample
    (_support_counts). A step's dim, noise level and factor dimension come from the per-process
    _image_space_table, and the counts of every factor dimension it lists from one search per coordinate
    of w, on the table's equispaced knots or on the sample's quantile knots. A step first tries the counts
    and, for a tensor they leave uncertified, the column sums themselves: for a 2-d w they are the entries
    of B_1'B_2, formed from the n x per_dim factors. A step whose noise stays below the bound returns
    (dim, noise, None, None): it builds no n x K design and computes no s_K, and a candidate's visit builds
    B and reads s_K = sqrt(n) / s_max(B). Any other step (cosine, power, or uncertified) forms B'B for
    lambda_max only and factors no design. A 2-d w rounds k up to the next per_dim^2, so a step whose
    realized dim repeats the last one returns that step unchanged. In one 4-replication supp-D call at
    n = 5000, xi = 0.5, every step of either design is certified: the scans build only their candidates'
    designs and call no eigvalsh.
    """
    w = designs.w
    columns = [w] if w.ndim == 1 else list(w.T)
    rows, knots = _image_space_table(config.basis, config.support, n, len(columns), k_min)
    counts = None if knots is None else [_coordinate_counts(config, knots, c) for c in columns]
    last: dict[int, tuple] = {}  # realized dim -> (dim, noise, s, B) of the last step

    def step(k: int):
        dim, noise, per_dim = rows[k]
        if dim in last:
            return last[dim]
        last.clear()  # released before the next design is built
        if counts is not None:
            bounds = [c[per_dim] for c in counts]
            for bound in bounds:
                if isinstance(bound, InputError):
                    raise bound
            bound = min(bounds)
            # the margin covers rounding in B's unit row sums and in the exact step's eigvalsh
            if noise >= math.sqrt(n / bound) * (1.0 - 1e-9) and len(columns) > 1:
                factors = designs.factors(config.instrument_specs(k, w))
                bound = float(np.max(_tensor_product(factors[:-1]).T @ factors[-1]))
            if noise < math.sqrt(n / bound) * (1.0 - 1e-9):
                last[dim] = (dim, noise, None, None)
                return last[dim]
        b = designs.instrument(config, k)
        gb = b.T @ b / n
        evals = _lapack(np.linalg.eigvalsh, 0.5 * (gb + gb.T))
        if evals[-1] <= 0:
            raise NumericalError("instrument gram B'B is numerically singular")
        last[dim] = (b.shape[1], noise, 1.0 / math.sqrt(float(evals[-1])), b)
        return last[dim]

    return step


def _image_space_statistics(q: np.ndarray, r_b: np.ndarray, r: np.ndarray) -> tuple[float, float]:
    """(D_K, v_K) of residuals r on the orthonormal instrument basis U_B = q r_b, from one K x K gram.

    With C = U_B' diag(r^2) U_B = r_b' (q o r)'(q o r) r_b and t = U_B' r = r_b'(q'r), compute_D and
    compute_vhat on S = U_B' are D = (|t|^2 - tr C) / (n - 1) and v = ||C||_F; no n x K basis is formed.
    """
    e = q * r[:, None]
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
    return _single(*_image_space_scan([y], x, w, null, config, None))


def _image_space_scan(ys, x, w, null: NullSpec, config: RunConfig, designs: _Designs | None):
    """image_space_scan of every outcome in ys on one y-free pass: (grid, results, warnings, n), results as
    _candidate_pass gives them. designs is the sample's _Designs; None builds one for this call."""
    null.check_image_space()
    ys, x, w, n = _checked_data(ys, x, w)
    model = null.model if null.custom_design is None else null.custom_design
    designs = _Designs(w) if designs is None else designs

    def visit(realized: int, smin: float | None, b: np.ndarray | None):
        if n <= realized:
            raise InputError(f"candidate K={realized}: need n > K, got n={n}")
        if b is None:  # a certified step built no design
            b = designs.instrument(config, realized)
        q, r_b, s_b = orthonormal_range(b)
        return realized, math.sqrt(n) / float(s_b[0]) if smin is None else smin, q, r_b

    z, _ = parametric_design(x, model)
    if z.shape[0] != n:
        raise InputError("parametric design and y must share the number of rows")
    # K below the null's parameter count leaves the restricted fit unidentified
    k_min = max(config.basis_min(), z.shape[1])
    outcomes = [partial(_image_space_outcome, y=y, x=x, model=model) for y in ys]
    grid, results = _candidate_pass(n, replace(config, grid="dyadic"), _image_space_step(config, designs, n, k_min),
                                    visit, outcomes, k_min)
    return grid, results, [*_clamp_warnings(config, w=w), *(grid.warnings if grid else ())], n


@np.errstate(over="ignore", invalid="ignore")  # an overflow reaches decide as a non-finite statistic
def _image_space_outcome(factor, y, x, model) -> _ScanEntry:
    """The part of an image-space candidate that reads y: the 2SLS of model on U_B = q r_b, and D_K and v_K of
    its residuals. factor is the visit's (K, s_K, q, r_b)."""
    k, s_hat, q, r_b = factor
    rfit = fit_restricted_parametric(y, x, model, q, r_b)
    r = rfit.residuals_r
    d_stat, v_stat = (0.0, 0.0) if _numerically_zero(r, y) else _image_space_statistics(q, r_b, r)
    _check_underflow(k, y, D=(d_stat, r), v=(v_stat, r))
    # chi-square df nets out the parameters the restricted fit consumed
    # inside the instrument projection; centering stays at K
    return _ScanEntry(j=k, k=k, d_stat=d_stat, v_stat=v_stat, s_hat=s_hat, gamma=max(1, k - rfit.df_consumed),
                      n_active=0, center=k)


def image_space_test(y, x, w, model, config: RunConfig | None = None) -> TestReport:
    """Run the adaptive instrument-space test of a parametric null at level config.alpha."""
    config = RunConfig() if config is None else config
    null = NullSpec(kind="parametric", model=model if isinstance(model, str) else None,
                    custom_design=None if isinstance(model, str) else model)
    grid, entries, warn, n = image_space_scan(y, x, w, null, config)
    return decide(grid, entries, n, null, config, statistic="image-space", warnings=warn)
