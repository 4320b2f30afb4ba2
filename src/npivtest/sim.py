"""Monte Carlo experiment driver.

Replications are independent tasks keyed by (master_seed, stream_id); within
one experiment replication r uses stream_id = r across every point of the
h-parameter axis (common random numbers), so power curves are monotone up to
estimator noise. Size-adjusted power calibrates the empirical (1-alpha)
quantile of max_J W_J from an independent boundary-null run of equal length
(stream ids offset by 2^31).

A call submits every cell it runs (and every run of a reproduced table)
before it gathers any, so its worker processes never wait for a cell to be
summarized; outcomes are sorted by replication index, so the rows do not
depend on jobs. A failed replication is counted with its reason.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import published
from .adaptive import NullSpec, RunConfig, adaptive_scan, decide, image_space_scan
from .dgp import DesignConfig, HSpec, generate, null_boundary
from .errors import InputError, NumericalError
from .randdist import RngStream

__all__ = [
    "ExperimentSpec",
    "CellResult",
    "McSummary",
    "run_size",
    "run_power",
    "run_experiment",
    "reproduce",
    "TABLE_IDS",
]

CALIBRATION_STREAM_OFFSET = 2**31
MAX_FAILURE_SHARE = 0.01

TABLE_IDS = ("T1", "T2", "F1", "F2", "supp-C", "supp-D")


@dataclass(frozen=True)
class ExperimentSpec:
    """Grid of simulation cells plus the test configuration to run on each."""

    design: str = "I"
    mode: str = "size"  # 'size' | 'power' | 'size_adjusted_power'
    statistic: str = "structural"  # 'structural' | 'image-space'
    null: str = "decreasing"
    h_family: str = "mono"
    n_values: tuple[int, ...] = (500,)
    xi_values: tuple[float, ...] = (0.5,)
    c0_values: tuple[float, ...] = (1.0,)
    c_a_values: tuple[float, ...] = (0.0,)
    c_b_values: tuple[float, ...] = (0.0,)
    alphas: tuple[float, ...] = (0.05,)
    replications: int = 1000
    k_factor: int = 2
    grid_mode: str | tuple[int, ...] = "knots"
    basis: str = "bspline2"
    master_seed: int = 0

    def __post_init__(self):
        if self.replications < 1:
            raise InputError(f"replications must be >= 1, got {self.replications}")
        if self.mode not in ("size", "power", "size_adjusted_power"):
            raise InputError(f"unknown mode {self.mode!r}")
        if self.statistic not in ("structural", "image-space"):
            raise InputError(f"unknown statistic {self.statistic!r}")
        for name in ("n_values", "xi_values", "c0_values", "c_a_values", "c_b_values", "alphas"):
            if len(getattr(self, name)) == 0:
                raise InputError(f"{name} must be non-empty")

    def null_spec(self) -> NullSpec:
        return NullSpec.from_name(self.null)

    def run_config(self) -> RunConfig:
        return RunConfig(
            alpha=min(self.alphas),
            basis=self.basis,
            grid=self.grid_mode,
            k_factor=self.k_factor,
            seed=self.master_seed,
        )

    def h_spec(self, c0: float, c_a: float, c_b: float) -> HSpec:
        return HSpec(family=self.h_family, c0=c0, c_a=c_a, c_b=c_b)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["grid_mode"] = self.grid_mode if isinstance(self.grid_mode, str) else list(self.grid_mode)
        for key in ("n_values", "xi_values", "c0_values", "c_a_values", "c_b_values", "alphas"):
            d[key] = list(d[key])
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentSpec":
        d = dict(d)
        known = set(ExperimentSpec.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise InputError(f"unknown experiment keys: {sorted(unknown)}")
        for key in ("n_values", "xi_values", "c0_values", "c_a_values", "c_b_values", "alphas"):
            if key in d:
                d[key] = tuple(d[key])
        if isinstance(d.get("grid_mode"), list):
            d["grid_mode"] = tuple(d["grid_mode"])
        return ExperimentSpec(**d)


@dataclass
class CellResult:
    """One design cell: rejection rates (per alpha), average selected dimension, provenance."""

    params: dict
    reject_rate: dict[float, float]
    avg_j: dict[float, float]
    se: dict[float, float]
    replications: int
    failures: int
    adjusted_crit: dict[float, float] | None = None
    failures_by_reason: dict[str, int] = field(default_factory=dict)  # "ExcClass: message" -> count; not a row field

    def rows(self) -> list[dict]:
        out = []
        for alpha in sorted(self.reject_rate):
            row = dict(self.params)
            row.update(
                {
                    "alpha": alpha,
                    "reject_rate": self.reject_rate[alpha],
                    "se": self.se[alpha],
                    "avg_J": self.avg_j[alpha],
                    "replications": self.replications,
                    "failures": self.failures,
                }
            )
            if self.adjusted_crit is not None:
                row["adjusted_crit"] = self.adjusted_crit[alpha]
            out.append(row)
        return out


@dataclass
class McSummary:
    """All cells of one experiment plus reproducibility metadata."""

    spec: ExperimentSpec
    cells: list[CellResult]
    metadata: dict = field(default_factory=dict)

    def rows(self) -> list[dict]:
        return [row for cell in self.cells for row in cell.rows()]

    def to_dict(self) -> dict:
        return {"spec": self.spec.to_dict(), "cells": self.rows(), "metadata": self.metadata}

    def cell(self, **params) -> CellResult:
        for c in self.cells:
            if all(c.params.get(k) == v for k, v in params.items()):
                return c
        raise KeyError(f"no cell with {params}")


# per replication: (index, {alpha: (reject, j_reported, max_J W_J)}), or (index, "ExcClass: message") if it failed
_Outcomes = list[tuple[int, dict | str]]


def _rep_outcomes(spec_dict: dict, cell: dict, reps: list[int], stream_offset: int) -> _Outcomes:
    """Worker: run the test on `reps` fresh datasets of one cell.

    Returns per rep {alpha: (reject, j_reported, max_J W_J)}, or the reason
    "ExcClass: message" of a numerical failure.
    """
    spec = ExperimentSpec.from_dict(spec_dict)
    null = spec.null_spec()
    config = spec.run_config()
    configs = {alpha: replace(config, alpha=alpha) for alpha in spec.alphas}
    scan = adaptive_scan if spec.statistic == "structural" else image_space_scan
    h = spec.h_spec(cell.get("c0", 1.0), cell.get("c_a", 0.0), cell.get("c_b", 0.0))
    out = []
    for r in reps:
        stream = RngStream(spec.master_seed, stream_offset + r)
        data = generate(DesignConfig(spec.design, cell["n"], cell["xi"], h, stream))
        try:
            grid, entries, _, n_obs = scan(data.y, data.x, data.w, null, config)
            per_alpha = {}
            for alpha in spec.alphas:
                report = decide(grid, entries, n_obs, null, configs[alpha])
                w_max = max(rec.w_stat for rec in report.per_j)
                per_alpha[alpha] = (report.reject, report.j_reported, w_max)
            out.append((r, per_alpha))
        except NumericalError as exc:
            out.append((r, f"{type(exc).__name__}: {exc}"))
    return out


class _Workers:
    """The worker processes of one Monte Carlo call, shared by all its cells.

    submit starts every chunk of a cell at once and returns a handle that
    gathers the cell's outcomes, so a call submits all its cells before it
    waits on any. The pool is forked the first time a cell takes the parallel
    path (jobs > 1 and at least 4 replications) and shut down, its queued
    chunks cancelled, when the call's `with` block ends. On the serial path
    the handle runs the cell when it is gathered.
    """

    def __init__(self, jobs: int):
        self.jobs = jobs
        self._pool: ProcessPoolExecutor | None = None

    def __enter__(self) -> "_Workers":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None

    def submit(self, spec: ExperimentSpec, cell: dict, stream_offset: int = 0) -> Callable[[], _Outcomes]:
        """A handle returning the outcomes of every replication of one cell, sorted by replication index
        whatever the chunking."""
        reps = list(range(spec.replications))
        if self.jobs <= 1 or spec.replications < 4:
            return partial(_rep_outcomes, spec.to_dict(), cell, reps, stream_offset)
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        chunks = np.array_split(np.asarray(reps), min(self.jobs * 4, len(reps)))
        futures = [
            self._pool.submit(_rep_outcomes, spec.to_dict(), cell, [int(r) for r in chunk], stream_offset)
            for chunk in chunks
            if len(chunk)
        ]

        def gather() -> _Outcomes:
            results = [item for fut in futures for item in fut.result()]
            results.sort(key=lambda item: item[0])
            return results

        return gather


def _failures_by_reason(outcomes: _Outcomes, cell: dict, replications: int) -> dict[str, int]:
    """Failed replications counted by reason; more than MAX_FAILURE_SHARE of them fail the cell."""
    reasons = Counter(res for _, res in outcomes if isinstance(res, str))
    failures = sum(reasons.values())
    if failures > MAX_FAILURE_SHARE * replications:
        raise NumericalError(
            f"cell {cell} had {failures}/{replications} failed replications (> {MAX_FAILURE_SHARE:.0%}): "
            f"{dict(reasons.most_common(3))}"
        )
    return dict(sorted(reasons.items()))


def _binomial_se(p: float, n_ok: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n_ok) if n_ok > 0 else float("nan")


def _cell_grid(spec: ExperimentSpec) -> list[dict]:
    cells = []
    for n in spec.n_values:
        for xi in spec.xi_values:
            if spec.h_family == "mono":
                for c0 in spec.c0_values:
                    cells.append({"n": n, "xi": xi, "c0": c0})
            else:
                for c_b in spec.c_b_values:
                    for c_a in spec.c_a_values:
                        cells.append({"n": n, "xi": xi, "c_a": c_a, "c_b": c_b})
    return cells


def _cell_result(spec: ExperimentSpec, cell: dict, outcomes: _Outcomes,
                 crit: dict[float, float] | None = None) -> CellResult:
    """Rejection rates, average selected dimension and SEs of one cell's outcomes.

    With crit (size-adjusted power) a replication rejects when its max W_J
    exceeds the calibrated critical value instead of by the test's decision.
    """
    reasons = _failures_by_reason(outcomes, cell, spec.replications)
    ok = [res for _, res in outcomes if not isinstance(res, str)]
    rates, avg_j, se = {}, {}, {}
    for alpha in spec.alphas:
        if crit is None:
            hits = [res[alpha][0] for res in ok]
        else:
            hits = [res[alpha][2] > crit[alpha] for res in ok]
        p = float(np.mean(hits)) if ok else float("nan")
        rates[alpha] = p
        avg_j[alpha] = float(np.mean([res[alpha][1] for res in ok])) if ok else float("nan")
        se[alpha] = _binomial_se(p, len(ok))
    return CellResult(params=dict(cell), reject_rate=rates, avg_j=avg_j, se=se,
                      replications=spec.replications, failures=sum(reasons.values()),
                      adjusted_crit=dict(crit) if crit is not None else None, failures_by_reason=reasons)


def _summary(spec: ExperimentSpec, cells: list[CellResult], start: float, calibration_failures=(),
             **extra) -> McSummary:
    """The summary of gathered cells; metadata lists the failure reasons of every failing cell and
    calibration run."""
    failed = [*calibration_failures,
              *({"cell": cell.params, "reasons": cell.failures_by_reason} for cell in cells if cell.failures)]
    meta = {"mode": spec.mode, "statistic": spec.statistic, "master_seed": spec.master_seed, **extra,
            "failures_by_reason": failed, "timings": {"total_seconds": time.perf_counter() - start}}
    return McSummary(spec=spec, cells=cells, metadata=meta)


def run_size(spec: ExperimentSpec, jobs: int = 1) -> McSummary:
    """Empirical rejection rates; the DGP parameters are expected to satisfy the null."""
    with _Workers(jobs) as workers:
        return _size(spec, workers)()


def _size(spec: ExperimentSpec, workers: _Workers) -> Callable[[], McSummary]:
    """Submit every cell of a size experiment; the returned handle gathers them into its summary."""
    start = time.perf_counter()
    pending = [(cell, workers.submit(spec, cell)) for cell in _cell_grid(spec)]
    return lambda: _summary(spec, [_cell_result(spec, cell, gather()) for cell, gather in pending], start)


def _boundary_c_a(spec: ExperimentSpec, c_b: float) -> float:
    null = spec.null_spec()
    if null.kind == "parametric":
        return 0.0
    return null_boundary(spec.h_family, c_b)


def run_power(spec: ExperimentSpec, jobs: int = 1) -> McSummary:
    """Power curves along the c_a axis; size-adjusted mode calibrates on a boundary-null run."""
    with _Workers(jobs) as workers:
        return _power(spec, workers)()


def _power(spec: ExperimentSpec, workers: _Workers) -> Callable[[], McSummary]:
    """Submit every cell of a power experiment, and each boundary-null run that calibrates a size-adjusted
    curve; the returned handle gathers them into its summary."""
    if spec.mode not in ("power", "size_adjusted_power"):
        raise InputError(f"run_power needs mode 'power' or 'size_adjusted_power', got {spec.mode!r}")
    if spec.h_family == "mono":
        raise InputError("power experiments use the sin/design2/quad families, not mono")
    start = time.perf_counter()
    curves = []  # (boundary cell and its handle, or None; [(cell, handle)] along c_a)
    for n in spec.n_values:
        for xi in spec.xi_values:
            for c_b in spec.c_b_values:
                boundary = None
                if spec.mode == "size_adjusted_power":
                    cell = {"n": n, "xi": xi, "c_a": _boundary_c_a(spec, c_b), "c_b": c_b}
                    boundary = cell, workers.submit(spec, cell, stream_offset=CALIBRATION_STREAM_OFFSET)
                curve = [(cell, workers.submit(spec, cell))
                         for cell in ({"n": n, "xi": xi, "c_a": c_a, "c_b": c_b} for c_a in spec.c_a_values)]
                curves.append((boundary, curve))

    def summary() -> McSummary:
        cells, calibration_failures = [], []
        for boundary, curve in curves:
            crit: dict[float, float] | None = None
            if boundary is not None:
                cell, gather = boundary
                null_out = gather()
                reasons = _failures_by_reason(null_out, cell, spec.replications)
                if reasons:
                    calibration_failures.append({"cell": cell, "calibration": True, "reasons": reasons})
                ok = [res for _, res in null_out if not isinstance(res, str)]
                crit = {alpha: float(np.quantile(np.asarray([res[alpha][2] for res in ok]), 1.0 - alpha))
                        for alpha in spec.alphas}
            cells.extend(_cell_result(spec, cell, gather(), crit) for cell, gather in curve)
        return _summary(spec, cells, start, calibration_failures,
                        size_adjustment="empirical (1-alpha) quantile of max_J W_J from an independent "
                        "boundary-null run of equal size, common random numbers along c_a")

    return summary


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> McSummary:
    with _Workers(jobs) as workers:
        return _experiment(spec, workers)()


def _experiment(spec: ExperimentSpec, workers: _Workers) -> Callable[[], McSummary]:
    """Submit every cell of an experiment; the returned handle gathers them into its summary."""
    return _size(spec, workers) if spec.mode == "size" else _power(spec, workers)


def _filtered(values, chosen):
    if chosen is None:
        return tuple(values)
    chosen = tuple(chosen)
    missing = [v for v in chosen if v not in values]
    if missing:
        raise InputError(f"requested cells {missing} are not part of this table")
    return chosen


class _Run(NamedTuple):
    """One experiment behind a published table, and how its cells become rows."""

    key: str  # the run's key in reproduce's "summaries"
    spec: dict  # ExperimentSpec fields besides replications and master_seed
    extra: dict  # fields added to each of the run's rows
    published: dict | None  # published values, keyed by the row fields named in `lookup`; None if not tabulated
    lookup: tuple[str, ...]
    rates: tuple[tuple[float, str | None], ...]  # (alpha, published key) per rejection-rate row
    avg: tuple[str, str] | None  # (metric, published key) of the average-dimension row


_R05 = ((0.05, "r05"),)
# table id -> (spec fields, published table, row fields keying it, rate rows) of the tables run once per K factor
_PER_K_TABLES = {
    "T1": (dict(null="decreasing", h_family="mono", alphas=(0.10, 0.05, 0.01)), published.TABLE1,
           ("n", "c0", "xi", "k_factor"), ((0.10, "r10"), (0.05, "r05"), (0.01, "r01"))),
    "T2": (dict(null="linear", h_family="sin"), published.TABLE2, ("n", "xi", "k_factor"), _R05),
    "supp-C": (dict(design="II", null="increasing", h_family="design2", c_a_values=(0.0, 0.1)), published.SUPP_C,
               ("n", "c_a", "xi", "k_factor"), _R05),
}


def _table_runs(table_id: str, n_values, xi_values, c0_values, k_factors) -> list[_Run]:
    """The runs of one table, its cell axes narrowed to the requested values."""
    if c0_values is not None and table_id != "T1":
        raise InputError(f"table {table_id} has no c0 axis to filter")
    if k_factors is not None and table_id in ("F1", "F2", "supp-D"):
        raise InputError(f"table {table_id} has no k_factor axis to filter")
    if table_id in ("F1", "F2"):
        spec = dict(
            mode="size_adjusted_power", null="decreasing" if table_id == "F1" else "linear", h_family="sin",
            n_values=_filtered((500, 1000) if table_id == "F1" else (500,), n_values),
            xi_values=_filtered((0.5, 0.7), xi_values),
            c_a_values=(0.1, 0.3, 0.6, 1.0, 1.5, 2.0), c_b_values=(0.0, 0.5, 1.0), k_factor=4,
        )
        return [_Run("power", spec, {}, None, (), ((0.05, None),), None)]
    axes = dict(n_values=_filtered((500, 1000, 5000), n_values), xi_values=_filtered((0.3, 0.5, 0.7), xi_values))
    if table_id == "supp-D":  # structural (K=4J) vs image-space test of linearity
        return [
            _Run(f"{design}:{statistic}",
                 dict(design=design, statistic=statistic, null="linear", h_family=family, k_factor=4, **axes),
                 {"design": design, "statistic": statistic}, published.SUPP_D, ("n", "design", "xi"),
                 ((0.05, key),), ("avg_dim", "jhat" if statistic == "structural" else "khat"))
            for design, family in (("I", "sin"), ("multivariate", "quad"))
            for statistic, key in (("structural", "struct"), ("image-space", "it"))
        ]
    fields, table, lookup, rates = _PER_K_TABLES[table_id]
    if table_id == "T1":
        axes["c0_values"] = _filtered((0.01, 0.1, 1.0), c0_values)
    return [
        _Run(f"k{k}", dict(k_factor=k, **fields, **axes), {"k_factor": k}, table, lookup, rates, ("avg_J", "jhat"))
        for k in _filtered((2, 4), k_factors)
    ]


def reproduce(table_id: str, replications: int = 1000, seed: int = 0, jobs: int = 1,
              n_values=None, xi_values=None, c0_values=None, k_factors=None) -> dict:
    """Re-run one published table/figure at desk scale and lay our numbers beside the originals.

    Returns {"table_id", "rows": [...], "summaries": {...}} where each row
    carries the cell parameters, this build's estimate, its binomial SE, and
    the published value where tabulated.
    """
    if replications < 1:
        raise InputError(f"replications must be >= 1, got {replications}")
    if table_id not in TABLE_IDS:
        raise InputError(f"unknown table id {table_id!r}; expected one of {TABLE_IDS}")

    rows: list[dict] = []
    summaries: dict[str, McSummary] = {}
    runs = _table_runs(table_id, n_values, xi_values, c0_values, k_factors)
    with _Workers(jobs) as workers:  # one pool serves every run and cell of the table
        pending = [(run, _experiment(ExperimentSpec(**run.spec, replications=replications, master_seed=seed),
                                     workers)) for run in runs]
        for run, gather in pending:
            summary = summaries[run.key] = gather()
            for cell in summary.cells:
                base = {**cell.params, **run.extra}
                ref = None if run.published is None else run.published[tuple(base[f] for f in run.lookup)]
                for alpha, key in run.rates:
                    rows.append({**base, "alpha": alpha, "ours": cell.reject_rate[alpha], "se": cell.se[alpha],
                                 "published": float("nan") if ref is None else ref[key]})
                if run.avg is not None:
                    metric, key = run.avg
                    rows.append({**base, "alpha": 0.05, "metric": metric, "ours": cell.avg_j[0.05],
                                 "se": float("nan"), "published": ref[key]})
    return {"table_id": table_id, "rows": rows, "summaries": summaries}
