"""Monte Carlo experiment driver.

Replications are independent tasks keyed by (master_seed, stream_id); within
one experiment replication r uses stream_id = r across every point of the
h-parameter axis (common random numbers), so power curves are monotone up to
estimator noise. Size-adjusted power calibrates the empirical (1-alpha)
quantile of max_J W_J from an independent boundary-null run of equal length
(stream ids offset by 2^31).

An experiment runs in three steps: `_plan` lists its cell tasks in row
order, `_run` runs them, and `_summary` turns their outcomes into cells.
`run_experiment` runs one experiment and `reproduce` all the experiments of
a published table as one plan, so with jobs > 1 a call submits every chunk
of every task before it gathers any. jobs is a positive integer. The process
keeps one worker pool, of at most one worker per CPU available to it: the
first call with jobs > 1 forks it, later calls with the same jobs reuse its
warm workers, a call with another jobs replaces it, and it is shut down when
a call fails and at exit; calls from several threads take turns. Each
worker keeps the pages it frees and runs one BLAS thread (_init_worker);
the calling process is left as it is. Every process runs a replication by
the same code. Outcomes are sorted by replication index, so the rows do not
depend on jobs. A failed replication is counted with its reason.
"""

from __future__ import annotations

import atexit
import ctypes
import glob
import math
import multiprocessing.process
import os
import threading
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from itertools import islice, product
from numbers import Integral, Real
from typing import ClassVar, NamedTuple

import numpy as np

from . import published
from .adaptive import (NullSpec, RunConfig, _Designs, _from_fields, _image_space_scan, _res_parameters,
                       _structural_scan, decide)
from .dgp import DesignConfig, HSpec, draw, null_boundary
from .errors import InputError, NumericalError
from .randdist import RngStream

__all__ = [
    "ExperimentSpec",
    "CellResult",
    "McSummary",
    "run_experiment",
    "reproduce",
    "TABLE_IDS",
]

CALIBRATION_STREAM_OFFSET = 2**31
MAX_FAILURE_SHARE = 0.01

TABLE_IDS = ("T1", "T2", "F1", "F2", "supp-C", "supp-D")
_AXES = ("n_values", "xi_values", "c0_values", "c_a_values", "c_b_values", "alphas")  # the cell axes of a spec


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

    schema_version: ClassVar[int] = 1

    def __post_init__(self):
        for name in ("replications", "k_factor", "master_seed", *_AXES):
            value = getattr(self, name)
            kind = Integral if name in ("replications", "k_factor", "master_seed", "n_values") else Real
            if name in _AXES:
                if not isinstance(value, (tuple, list)) or len(value) == 0:
                    raise InputError(f"{name} must be a non-empty list, got {value!r}")
                object.__setattr__(self, name, tuple(value))
            if any(isinstance(v, bool) or not isinstance(v, kind) for v in (value if name in _AXES else (value,))):
                what = f"a list of {'integers' if kind is Integral else 'numbers'}" if name in _AXES else "an integer"
                raise InputError(f"{name} must be {what}, got {value!r}")
            repeated = sorted({v for v in value if value.count(v) > 1}) if name in _AXES else []
            if repeated:  # a repeated value would run its cells, and print their rows, twice
                raise InputError(f"{name} has repeated values {repeated}")
        if isinstance(self.grid_mode, list):
            object.__setattr__(self, "grid_mode", tuple(self.grid_mode))
        if self.replications < 1:
            raise InputError(f"replications must be >= 1, got {self.replications}")
        if self.mode not in ("size", "power", "size_adjusted_power"):
            raise InputError(f"unknown mode {self.mode!r}")
        if self.statistic not in ("structural", "image-space"):
            raise InputError(f"unknown statistic {self.statistic!r}")
        if self.mode != "size" and self.h_family == "mono":
            raise InputError("power experiments use the sin/design2/quad families, not mono")
        # every value is checked here, by the object that owns its rule, before a worker pool forks
        null, config = self.null_spec(), self.run_config()
        if self.statistic == "structural":
            config.check_explicit_grid()
            config.check_null_basis(null)
        else:  # the image-space scan runs its own dyadic grid
            null.check_image_space()
        for alpha in self.alphas:
            replace(config, alpha=alpha)
        for n, xi, c0, c_a, c_b in product(*(getattr(self, axis) for axis in _AXES[:-1])):
            _res_parameters(n)
            DesignConfig(self.design, n, xi, self.h_spec(c0, c_a, c_b), RngStream(self.master_seed, 0))

    def null_spec(self) -> NullSpec:
        return NullSpec.from_name(self.null)

    def run_config(self) -> RunConfig:
        return RunConfig(
            alpha=min(self.alphas),
            basis=self.basis,
            grid=self.grid_mode,
            k_factor=self.k_factor,
        )

    def h_spec(self, c0: float, c_a: float, c_b: float) -> HSpec:
        return HSpec(family=self.h_family, c0=c0, c_a=c_a, c_b=c_b)

    def to_dict(self) -> dict:
        d = {"schema_version": self.schema_version, **asdict(self)}
        d["grid_mode"] = self.grid_mode if isinstance(self.grid_mode, str) else list(self.grid_mode)
        for key in _AXES:
            d[key] = list(d[key])
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentSpec":
        return _from_fields(ExperimentSpec, d, "experiment")


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


class _Task(NamedTuple):
    """One cell of an experiment, run on the replication streams offset + r."""

    spec: ExperimentSpec
    cell: dict
    stream_offset: int  # CALIBRATION_STREAM_OFFSET marks the boundary-null run that calibrates a curve


def _plan(spec: ExperimentSpec) -> list[_Task]:
    """Every cell task of an experiment in row order; in size-adjusted mode each curve's boundary-null run
    comes just before the curve it calibrates."""
    tasks = []
    for n in spec.n_values:
        for xi in spec.xi_values:
            if spec.h_family == "mono":
                tasks += [_Task(spec, {"n": n, "xi": xi, "c0": c0}, 0) for c0 in spec.c0_values]
                continue
            for c_b in spec.c_b_values:
                if spec.mode == "size_adjusted_power":
                    boundary = 0.0 if spec.null_spec().kind == "parametric" else null_boundary(spec.h_family, c_b)
                    tasks.append(_Task(spec, {"n": n, "xi": xi, "c_a": boundary, "c_b": c_b},
                                       CALIBRATION_STREAM_OFFSET))
                tasks += [_Task(spec, {"n": n, "xi": xi, "c_a": c_a, "c_b": c_b}, 0) for c_a in spec.c_a_values]
    return tasks


def _groups(tasks: list[_Task]) -> list[list[int]]:
    """The indices of the tasks that read the same draw, one group per (design, n, xi, master seed, stream
    offset, replications), in order of first appearance: a group's tasks differ only in h, the statistic
    and the test configuration."""
    groups: dict[tuple, list[int]] = {}
    for i, (spec, cell, stream_offset) in enumerate(tasks):
        key = (spec.design, cell["n"], cell["xi"], spec.master_seed, stream_offset, spec.replications)
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _rep_outcomes(tasks: tuple[_Task, ...], reps) -> list[_Outcomes]:
    """Worker: run the test of every task of one group on the replications in `reps`.

    Per replication the group draws (x, w, u) once and forms each task's
    y = h(x) + u as dgp.generate does. Its tasks with one (statistic, null,
    run config) share one y-free candidate pass, which runs every such
    task's outcome on each candidate it visits, and every pass of the
    replication reads one _Designs of w. Returns each task's outcomes: per
    rep {alpha: (reject, j_reported, max_J W_J)}, or the reason
    "ExcClass: message" of a numerical failure, the task's own or, for
    every task of a pass still running when it fails, the pass's.
    """
    passes: dict[tuple, list[int]] = {}
    runs = []
    for t, (spec, cell, _) in enumerate(tasks):
        config = spec.run_config()
        passes.setdefault((spec.statistic, spec.null_spec(), config), []).append(t)
        runs.append((spec.h_spec(cell.get("c0", 1.0), cell.get("c_a", 0.0), cell.get("c_b", 0.0)),
                     {alpha: replace(config, alpha=alpha) for alpha in spec.alphas}))
    spec, cell, stream_offset = tasks[0]
    out: list[_Outcomes] = [[] for _ in tasks]
    for r in reps:
        stream = RngStream(spec.master_seed, stream_offset + r)
        x, w, u = draw(DesignConfig(spec.design, cell["n"], cell["xi"], runs[0][0], stream))  # reads no h
        designs = _Designs(w)
        for (statistic, null, config), members in passes.items():
            scan = _structural_scan if statistic == "structural" else _image_space_scan
            grid, results, _, n_obs = scan([runs[t][0](x) + u for t in members], x, w, null, config, designs)
            for t, entries in zip(members, results):
                out[t].append((r, _verdicts(grid, entries, n_obs, null, runs[t][1])))
    return out


def _verdicts(grid, entries, n: int, null: NullSpec, configs: dict[float, RunConfig]) -> dict | str:
    """{alpha: (reject, j_reported, max_J W_J)} of one task's entries, or the reason "ExcClass: message" of
    the NumericalError that ended its pass or its decision."""
    try:
        if isinstance(entries, NumericalError):
            raise entries
        per_alpha = {}
        for alpha, config in configs.items():
            report = decide(grid, entries, n, null, config)
            per_alpha[alpha] = (report.reject, report.j_reported, max(rec.w_stat for rec in report.per_j))
        return per_alpha
    except NumericalError as exc:
        return f"{type(exc).__name__}: {exc}"


# the process's worker pool as (jobs, pool); a child forked while it lives forgets it (_forget_inherited_pool)
_pool: tuple[int, ProcessPoolExecutor] | None = None
_calls = threading.Lock()  # held through each call, so calls from several threads take turns on the pool


def _workers(jobs: int) -> ProcessPoolExecutor:
    """The process's pool for `jobs`, built on first use and replaced when jobs changes or a worker died while
    the pool was idle. It has at most one worker per CPU available to the process: a pool starts every
    worker at its first submit, and _init_worker sets each one up."""
    global _pool
    if _pool is None or _pool[0] != jobs or _pool[1]._broken:
        _discard_pool()
        _pool = (jobs, ProcessPoolExecutor(max_workers=min(jobs, _cpus()), initializer=_init_worker))
    return _pool[1]


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _init_worker() -> None:
    """Set up a pool worker: it keeps the pages it frees and runs one BLAS thread."""
    try:
        libc = ctypes.CDLL(None)  # the symbols the process has loaded, the C library's among them
    except (OSError, TypeError):  # a platform that cannot open the process itself
        libc = None
    _keep_freed_pages(libc)
    _one_blas_thread()


def _keep_freed_pages(libc) -> None:
    """Let the C allocator keep freed memory up to 256 MiB and serve blocks up to 32 MiB from its heap.

    A replication frees its designs and factors, and glibc would hand most of those pages back to the
    kernel, so the next replication pays a page fault for every page it touches again. Nothing is done
    where libc has no mallopt."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None:
        mallopt(_M_TRIM_THRESHOLD, 256 << 20)
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def _one_blas_thread() -> None:
    """One OpenBLAS thread for this process, through the library numpy bundles; nothing is done where that
    library or its setter is missing. Workers each run one replication at a time on matrices a few dozen
    columns wide, where more BLAS threads than CPUs only contend."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*.so")
    for lib in glob.glob(libs):
        setter = getattr(ctypes.CDLL(lib), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter(1)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _forget_inherited_pool() -> None:
    """In a child forked while the pool lives, forget the pool, which belongs to the parent, and drop
    multiprocessing's records of its workers, which the child's exit hook would otherwise try to join."""
    global _pool
    if _pool is not None:
        for worker in (_pool[1]._processes or {}).values():
            multiprocessing.process._children.discard(worker)
    _pool = None


if hasattr(os, "register_at_fork"):  # a platform without fork has no inherited pool
    os.register_at_fork(after_in_child=_forget_inherited_pool)


@atexit.register
def _discard_pool() -> None:
    """Forget the process's pool and shut it down, cancelling its queued chunks."""
    global _pool
    owned, _pool = _pool, None
    if owned is not None:
        owned[1].shutdown(cancel_futures=True)


def _run(tasks: list[_Task], jobs: int) -> list[_Outcomes]:
    """Each task's outcomes in plan order, sorted by replication index whatever the chunking.

    Tasks run in their draw groups (_groups). With jobs > 1 and at least 4
    replications per task, the process's one pool (_workers) runs each
    group in at most 4 * jobs chunks of replications; every chunk is
    submitted before the first result is gathered. The pool stays warm for
    the next call with the same jobs, and is discarded when a call fails
    (`_summaries`) and at exit. Otherwise the groups run in this process.
    """
    groups = _groups(tasks)
    members = [tuple(tasks[i] for i in group) for group in groups]
    if jobs <= 1 or any(task.spec.replications < 4 for task in tasks):
        chunked = [[_rep_outcomes(group, range(group[0].spec.replications))] for group in members]
    else:
        pool = _workers(jobs)
        futures = [[pool.submit(_rep_outcomes, group, chunk.tolist())
                    for chunk in np.array_split(np.arange(group[0].spec.replications),
                                                min(4 * jobs, group[0].spec.replications))]
                   for group in members]
        chunked = [[fut.result() for fut in chunks] for chunks in futures]
    outcomes: list[_Outcomes] = [[] for _ in tasks]
    for group, chunks in zip(groups, chunked):  # each chunk holds every task's outcomes on its replications
        for t, i in enumerate(group):
            outcomes[i] = sorted((item for chunk in chunks for item in chunk[t]), key=lambda item: item[0])
    return outcomes


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


def _summary(spec: ExperimentSpec, tasks: list[_Task], outcomes: list[_Outcomes], start: float) -> McSummary:
    """The summary of one experiment's tasks, in plan order.

    A boundary-null task sets the critical values of the cells that follow
    it, the empirical (1-alpha) quantiles of its max_J W_J; every other task
    becomes a cell. Metadata lists the failure reasons of every failing
    calibration run and cell.
    """
    cells, calibration_failures = [], []
    crit: dict[float, float] | None = None
    for (_, cell, stream_offset), out in zip(tasks, outcomes):
        if stream_offset != CALIBRATION_STREAM_OFFSET:
            cells.append(_cell_result(spec, cell, out, crit))
            continue
        reasons = _failures_by_reason(out, cell, spec.replications)
        if reasons:
            calibration_failures.append({"cell": cell, "calibration": True, "reasons": reasons})
        ok = [res for _, res in out if not isinstance(res, str)]
        crit = {alpha: float(np.quantile(np.asarray([res[alpha][2] for res in ok]), 1.0 - alpha))
                for alpha in spec.alphas}
    failed = [*calibration_failures,
              *({"cell": cell.params, "reasons": cell.failures_by_reason} for cell in cells if cell.failures)]
    extra = {} if spec.mode == "size" else {
        "size_adjustment": "empirical (1-alpha) quantile of max_J W_J from an independent boundary-null run "
                           "of equal size, common random numbers along c_a"}
    meta = {"mode": spec.mode, "statistic": spec.statistic, "master_seed": spec.master_seed, **extra,
            "failures_by_reason": failed, "timings": {"total_seconds": time.perf_counter() - start}}
    return McSummary(spec=spec, cells=cells, metadata=meta)


def _summaries(specs: list[ExperimentSpec], jobs: int) -> list[McSummary]:
    """The summary of each experiment, all of them run as one plan; the process's pool is discarded when
    anything fails, so no failed call leaves workers behind for the next. Calls from several threads take
    turns, so none replaces or discards the pool under another."""
    if isinstance(jobs, bool) or not isinstance(jobs, Integral) or jobs < 1:
        raise InputError(f"jobs must be a positive integer, got {jobs!r}")
    start = time.perf_counter()
    plans = [_plan(spec) for spec in specs]
    with _calls:
        try:
            outcomes = iter(_run([task for tasks in plans for task in tasks], jobs))
            return [_summary(spec, tasks, list(islice(outcomes, len(tasks))), start)
                    for spec, tasks in zip(specs, plans)]
        except BaseException:
            _discard_pool()
            raise


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> McSummary:
    """Every cell of an experiment on `jobs` worker processes: empirical rejection rates in size and power
    mode, and power curves calibrated on boundary-null runs in size-adjusted mode."""
    return _summaries([spec], jobs)[0]


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
    if table_id not in TABLE_IDS:
        raise InputError(f"unknown table id {table_id!r}; expected one of {TABLE_IDS}")

    rows: list[dict] = []
    summaries: dict[str, McSummary] = {}
    runs = _table_runs(table_id, n_values, xi_values, c0_values, k_factors)
    specs = [ExperimentSpec(**run.spec, replications=replications, master_seed=seed) for run in runs]
    for run, summary in zip(runs, _summaries(specs, jobs)):  # one plan, so one pool serves the whole table
        summaries[run.key] = summary
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
