"""The benchmark's workloads: inputs made from a seed, one operation, and its correctness check.

Every workload is a closed loop with one caller. Operations come in cycles
that cover every cell of the workload once, and a timed run stops only at a
cycle boundary, so each run has the same mix of cells.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr

REL_TOL = 1e-10  # ROADMAP bound for statistics on a changed numerical path

T1_CELLS = tuple((xi, c0) for xi in (0.3, 0.5, 0.7) for c0 in (0.01, 0.1, 1.0))


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _schema(pkg, name: str) -> dict:
    return json.loads((Path(pkg.__file__).parent / "schemas" / name).read_text(encoding="utf-8"))


def _schema_problems(pkg, doc, name: str) -> list[str]:
    import jsonschema

    errors = sorted(jsonschema.Draft202012Validator(_schema(pkg, name)).iter_errors(doc), key=str)
    return [f"{name}: {err.message}" for err in errors[:3]]


def design1_csv(path: Path, n: int, xi: float, c0: float, rng: np.random.Generator):
    """Design I sample written as a CSV: (X*, W*, U) normal with corr(X*, W*) = xi, corr(X*, U) = 0.3,
    x = Phi(X*), w = Phi(W*), y = c0 (1 - 2 Phi((x - 1/2) / c0)) + U."""
    cov = np.array([[1.0, xi, 0.3], [xi, 1.0, 0.0], [0.3, 0.0, 1.0]])
    z = rng.standard_normal((n, 3)) @ np.linalg.cholesky(cov).T
    x, w = ndtr(z[:, 0]), ndtr(z[:, 1])
    y = c0 * (1.0 - 2.0 * ndtr((x - 0.5) / c0)) + z[:, 2]
    np.savetxt(path, np.column_stack([y, x, w]), fmt="%.17g", delimiter=",", header="y,x,w", comments="")


@dataclass
class Outcome:
    """Result of one operation after its check.

    reps and failed count replications (one per CLI test); canonical is the
    output as bytes; summary holds the fields compared with the reference.
    """

    reps: int
    failed: int
    problems: list[str]
    canonical: bytes = b""
    summary: dict | None = None


class TestN20k:
    """`npivtest test` on distinct design-I CSVs at n = 20 000, one file per operation."""

    name = "test-n20k"
    jobs = 1
    pooled = False  # runs no process pool, so it has no parallel efficiency
    unit = "tests"
    reps_per_op = 1
    n = 20_000
    cycle = len(T1_CELLS)
    cycles = 10  # files per run = cycle * cycles; each is used once

    def plan(self, seed: int, workdir: Path, count: int | None = None) -> dict:
        """count operations (default: every planned file) plus one warm-up operation."""
        ops = []
        for i in range((count or self.cycle * self.cycles) + 1):
            xi, c0 = T1_CELLS[i % self.cycle]
            csv = workdir / f"in{i:03d}.csv"
            design1_csv(csv, self.n, xi, c0, np.random.default_rng([seed, i]))
            ops.append({"index": i, "xi": xi, "c0": c0, "csv": str(csv), "out": str(workdir / f"out{i:03d}.json")})
        # the last file is the warm-up input; timed operations never see it
        return {"workload": self.name, "seed": seed, "warmup": ops[-1], "ops": ops[:-1]}

    def run(self, pkg, op: dict, jobs: int, out_suffix: str = ""):
        return pkg.cli.main(["test", op["csv"], "--null", "decreasing", "--grid", "knots", "--kfactor", "4",
                             "--format", "json", "--out", op["out"] + out_suffix])

    def outcome(self, pkg, op: dict, result, error: str | None, reference: dict | None,
                out_suffix: str = "") -> Outcome:
        if error is not None:
            return Outcome(1, 1, [error])
        if result != 0:
            return Outcome(1, 1, [f"exit code {result}"])
        raw = Path(op["out"] + out_suffix).read_bytes()
        report = json.loads(raw)
        problems = self.check(pkg, report, reference)
        return Outcome(1, int(bool(problems)), problems, raw, None if problems else self.summary(report))

    def check(self, pkg, report: dict, reference: dict | None) -> list[str]:
        problems = _schema_problems(pkg, report, "report.schema.json")
        if problems:
            return problems
        per_j = report["per_J"]
        for rec in per_j:
            for key in ("D", "v", "s_hat", "eta", "W", "p_value"):
                if not _finite(rec.get(key)):
                    problems.append(f"J={rec['J']}: {key} = {rec.get(key)!r} is not finite")
        for key in ("W_reported", "p_value"):
            if not _finite(report.get(key)):
                problems.append(f"{key} = {report.get(key)!r} is not finite")
        if problems:
            return problems
        if report["reject"] != any(rec["W"] > 1.0 for rec in per_j):
            problems.append("reject disagrees with any(W > 1)")
        if report["grid"]["J_list"] != [rec["J"] for rec in per_j]:
            problems.append("per_J does not follow J_list")
        if reference is not None:
            problems += self.compare(self.summary(report), reference)
        return problems

    @staticmethod
    def summary(report: dict) -> dict:
        return {
            "reject": report["reject"],
            "J_reported": report["J_reported"],
            "J_list": report["grid"]["J_list"],
            "W": [rec["W"] for rec in report["per_J"]],
            "p_value": [rec["p_value"] for rec in report["per_J"]],
        }

    @staticmethod
    def compare(got: dict, ref: dict) -> list[str]:
        problems = [f"{key}: {got[key]} != reference {ref[key]}"
                    for key in ("reject", "J_reported", "J_list") if got[key] != ref[key]]
        if problems:
            return problems
        for key in ("W", "p_value"):
            for j, a, b in zip(ref["J_list"], got[key], ref[key]):
                if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0):
                    problems.append(f"J={j}: {key} {a!r} differs from reference {b!r} by more than rel {REL_TOL}")
        return problems


class McWorkload:
    """`sim.reproduce` on one cell group per operation, with a fresh master seed per operation."""

    name: str
    table: str
    jobs: int
    n: int
    replications: int  # per cell
    cycle_cells: tuple  # reproduce() filter arguments of each operation in a cycle
    cycles = 40  # cap on planned operations; the run stops when its time is up
    pooled = True
    unit = "replications"

    def plan(self, seed: int, workdir: Path, count: int | None = None) -> dict:
        """count operations (default: the cap) plus one warm-up operation."""
        rng = random.Random(seed)
        ops = []
        for i in range((count or self.cycle * self.cycles) + 1):
            ops.append({"index": i, "cell": dict(self.cycle_cells[i % len(self.cycle_cells)]),
                        "seed": rng.randrange(2**31)})
        return {"workload": self.name, "seed": seed, "warmup": ops[-1], "ops": ops[:-1]}

    @property
    def cycle(self) -> int:
        return len(self.cycle_cells)

    @property
    def reps_per_op(self) -> int:
        return self.replications * self.cells_per_op

    def run(self, pkg, op: dict, jobs: int, out_suffix: str = ""):
        return pkg.sim.reproduce(self.table, replications=self.replications, seed=op["seed"], jobs=jobs,
                                 n_values=(self.n,), **op["cell"])

    def outcome(self, pkg, op: dict, result, error: str | None, reference: dict | None,
                out_suffix: str = "") -> Outcome:
        reps = self.reps_per_op
        if error is not None:
            return Outcome(reps, reps, [error])
        summary = self.summary(result)
        canonical = json.dumps({"rows": result["rows"], "cells": summary}, sort_keys=True).encode()
        problems = self.check(pkg, result, summary, reference)
        sim_failures = sum(cell.failures for s in result["summaries"].values() for cell in s.cells)
        return Outcome(reps, reps if problems else sim_failures, problems, canonical, summary)

    def check(self, pkg, result: dict, summary: dict, reference: dict | None) -> list[str]:
        problems = []
        summaries = result["summaries"]
        if sum(len(s.cells) for s in summaries.values()) != self.cells_per_op:
            problems.append(f"expected {self.cells_per_op} cells, got summaries {sorted(summaries)}")
        for key, mc_summary in summaries.items():
            doc = mc_summary.to_dict()
            doc["metadata"].setdefault("version", pkg.__version__)  # `simulate` adds it before writing
            for row in doc["cells"]:
                for field in ("reject_rate", "se", "avg_J"):
                    if not _finite(row[field]):
                        problems.append(f"{key} {row}: {field} is not finite")
                if _finite(row["reject_rate"]) and not 0.0 <= row["reject_rate"] <= 1.0:
                    problems.append(f"{key}: reject_rate {row['reject_rate']} outside [0, 1]")
                if _finite(row["avg_J"]) and row["avg_J"] < 1.0:
                    problems.append(f"{key}: avg_J {row['avg_J']} below 1")
                if row["replications"] != self.replications:
                    problems.append(f"{key}: {row['replications']} replications, expected {self.replications}")
            if not problems:
                problems += [f"{key}: {p}" for p in _schema_problems(pkg, doc, "summary.schema.json")]
        for row in result["rows"]:
            if not _finite(row["ours"]):
                problems.append(f"row {row}: estimate is not finite")
        if not problems and reference is not None and summary != reference:
            problems.append(f"per-cell reject_rate / avg_J / failures differ from reference: {summary} != {reference}")
        return problems

    @staticmethod
    def summary(result: dict) -> dict:
        """Per summary, per cell and alpha: the fields that must match the reference exactly."""
        keep = ("n", "xi", "c0", "c_a", "c_b", "alpha", "reject_rate", "avg_J", "failures")
        return {key: [{f: row[f] for f in keep if f in row} for row in summary.rows()]
                for key, summary in sorted(result["summaries"].items())}


class McT1(McWorkload):
    """reproduce T1 at n = 500: small replications dominated by Python dispatch (cone null)."""

    name = "mc-t1-n500"
    table = "T1"
    jobs = 1
    n = 500
    replications = 25
    cycle_cells = tuple({"xi_values": [xi], "c0_values": [c0], "k_factors": [k]} for k in (2, 4) for xi, c0 in T1_CELLS)
    cells_per_op = 1


class McSuppD(McWorkload):
    """reproduce supp-D at n = 5 000 on two workers: structural and image-space linearity tests."""

    name = "mc-suppd-n5000-jobs2"
    table = "supp-D"
    jobs = 2
    n = 5000
    replications = 4  # the smallest count that `sim` sends to its process pool
    cycle_cells = tuple({"xi_values": [xi]} for xi in (0.3, 0.5, 0.7))
    cells_per_op = 4  # designs I and multivariate, structural and image-space statistics


WORKLOADS = {wl.name: wl for wl in (TestN20k(), McT1(), McSuppD())}
