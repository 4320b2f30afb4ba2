"""Parity sweep: run one derandomized set of library inputs on two source trees and print every input whose
outcome differs.

    python tests/tools/parity.py OLD_TREE NEW_TREE [--per-scan 1000] [--seed 0] [--reproduce]
    python tests/tools/parity.py TREE --write-digest PATH

Each tree runs in its own subprocess with PYTHONPATH=<tree>/src, so the trees may be any two checkouts of
this repository. An input's outcome is its report's canonical `to_dict()` JSON (for `cs_contains`, the JSON
of the triple it returns), or its error's type (InputError for any input error) and message. Outcomes are
compared by the golden rule, `_differences`: every float within rel 1e-10, anything else exactly, so that a
change that only rounds differently does not count. Every differing input is printed with its case and a brief
of both outcomes (a report's grid, decision and warnings), then a count of the changes by scan and by outcome
kind (report or error type, before -> after), and the number of outcomes whose floats moved within the rule.
It exits 1 when any outcome changed or a tree's run failed, and 0 when no outcome changed, so a script can
gate on it. `--reproduce` also compares the rows of every `reproduce` table at 4 replications, seed 3.
`--write-digest PATH` writes TREE's outcomes of the digest slice, the first DIGEST_SIZE seed-0 inputs with
n <= DIGEST_MAX_N, to PATH as JSON: a report as its parsed `to_dict()` (for `cs_contains`, the triple), an
error as its 'ErrorType: message' text. tests/test_parity_digest.py compares the package with the committed
tests/data/parity_digest.json; like every golden, it is rewritten only by a change that means to move an
outcome, which lists each moved input.

The generator draws --per-scan inputs for each of `adaptive_test`, `image_space_test` and `cs_contains`
from numpy's PCG64 seeded by (seed, index), so a case does not depend on the package's own generators:
  * designs I, II and multivariate (a 2-d w), n log-uniform in [40, 20 000], instrument strength xi;
  * w continuous, with 2-20 levels, tied (70 % of it at one value), or stretched partly outside the support;
  * x continuous or with 1-20 distinct values;
  * four bases, both knot rules, the dyadic, knots and explicit grid rules (an explicit grid is a few small
    dims or, at n <= 400, dims whose K = k_factor J lies within a few columns of n), K factors 2 and 4;
  * every null: the four shape nulls (on a B-spline basis), custom constraint rows, the linear and quadratic
    ones and a custom design (1, x, x^3); weights, a few of them zero, on 30 % of the structural inputs.
It needs nothing beyond numpy and the package, and it is not a test module: tier-1 does not collect it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings
from collections import Counter

import numpy as np

SCANS = ("adaptive_test", "image_space_test", "cs_contains")
DIGEST_SIZE, DIGEST_MAX_N = 300, 2000
SHAPES = ("decreasing", "increasing", "convex", "concave")
BASES = ("bspline2", "bspline3", "cosine", "power")
_erf = np.frompyfunc(math.erf, 1, 1)


def _phi(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + _erf(z / math.sqrt(2.0)).astype(float))


def _draw(rng, design: str, n: int, xi: float):
    """(x, w, u) of design I (corr(X*, W*) = xi, corr(X*, U) = 0.3), II (W* drives X*) or multivariate (a
    second instrument correlated 0.4 with X*), mapped to (0, 1) by the normal CDF."""
    if design == "II":
        w_star, eps, nu = rng.standard_normal((3, n))
        return _phi(xi * w_star + math.sqrt(1.0 - xi**2) * eps), _phi(w_star), (0.3 * eps + math.sqrt(0.91) * nu) / 2
    strengths = (xi,) if design == "I" else (xi, 0.4)
    corr = np.eye(len(strengths) + 2)
    corr[0, 1:-1] = corr[1:-1, 0] = strengths
    corr[0, -1] = corr[-1, 0] = 0.3
    z = rng.standard_normal((n, corr.shape[0])) @ np.linalg.cholesky(corr).T
    w = _phi(z[:, 1:-1])
    return _phi(z[:, 0]), w[:, 0] if w.shape[1] == 1 else w, z[:, -1]


def _levels(v: np.ndarray, count: int) -> np.ndarray:
    """v in [0, 1] rounded to count equispaced levels (one level: the midpoint)."""
    return np.full_like(v, 0.5) if count == 1 else np.round(v * (count - 1)) / (count - 1)


def case(seed: int, index: int) -> tuple[dict, tuple]:
    """(description, (y, x, w, mu)) of input index: its scan is SCANS[index % 3]."""
    rng = np.random.default_rng([seed, index])
    scan = SCANS[index % 3]
    design = str(rng.choice(("I", "II", "multivariate")))
    n = int(round(math.exp(rng.uniform(math.log(40), math.log(20000)))))
    xi = float(rng.choice((0.3, 0.5, 0.9)))
    xi = min(xi, 0.7) if design == "multivariate" else xi  # its latent correlation is positive definite
    x, w, u = _draw(rng, design, n, xi)
    w_kind = str(rng.choice(("continuous", "levels", "tied", "outside")))
    w_levels = int(rng.integers(2, 21))
    if w_kind == "levels":
        w = _levels(w, w_levels)
    elif w_kind == "tied":
        w = np.where(rng.uniform(size=w.shape) < 0.7, 0.5, w)
    elif w_kind == "outside":
        w = 1.2 * w - 0.1
    x_levels = int(rng.integers(1, 21)) if rng.uniform() < 0.4 else None
    if x_levels is not None:
        x = _levels(x, x_levels)
    h = str(rng.choice(("linear", "quadratic", "sine", "decreasing")))
    truth = {"linear": 1.0 + x, "quadratic": x - 2.0 * x**2, "sine": np.sin(2.0 * np.pi * x),
             "decreasing": 1.0 - x**3}[h]
    scale = float(10.0 ** rng.integers(-3, 4)) if rng.uniform() < 0.2 else 1.0
    y = scale * (truth + u)
    nulls = ("linear", "quadratic", "custom-design")
    null = str(rng.choice(nulls if scan == "image_space_test" else (*SHAPES, "custom-rows", *nulls)))
    basis = str(rng.choice(BASES[:2] if null in SHAPES else BASES))
    mu = None
    if scan != "image_space_test" and rng.uniform() < 0.3:  # weights, a few of them zero
        mu = rng.uniform(0.5, 1.5, size=n)
        mu[rng.permutation(n)[: rng.integers(0, max(1, n // 10))]] = 0.0
    k_factor = int(rng.choice((2, 4)))
    grid = str(rng.choice(("dyadic", "knots", "explicit")))
    if grid == "explicit":
        if n > 400 or rng.uniform() < 0.5:
            grid = sorted({int(j) for j in rng.integers(3, 11, size=rng.integers(1, 4))})
        else:  # K = k_factor J within a few columns of n, on samples small enough to hold such designs
            near = range(max(4, (n - 6) // k_factor), (n + 2) // k_factor + 1)
            grid = sorted({int(j) for j in rng.choice(near, size=rng.integers(1, 3))})
    at_end = bool(np.any((w <= 0.0) | (w >= 1.0)) or np.any((x <= 0.0) | (x >= 1.0)))  # of the support [0, 1]
    description = {"id": index, "scan": scan, "design": design, "n": n, "xi": xi, "w": w_kind,
                   "w_levels": w_levels if w_kind == "levels" else None, "x_levels": x_levels, "h": h,
                   "scale": scale, "null": null, "basis": basis, "weights": mu is not None,
                   "knot_rule": str(rng.choice(("equispaced", "quantile"))), "grid": grid, "k_factor": k_factor,
                   "at_end": at_end}
    return description, (y, x, w, mu)


def _outcome(description: dict, data: tuple) -> str:
    """The canonical JSON of the input's result, or 'ErrorType: message' (InputError for every input error)."""
    from npivtest import ConstraintMatrix, NullSpec, RunConfig, adaptive_test, cs_contains, image_space_test
    from npivtest.errors import InputError, NumericalError

    y, x, w, mu = data
    try:
        grid = description["grid"]
        config = RunConfig(basis=description["basis"], grid=grid if isinstance(grid, str) else tuple(grid),
                           k_factor=description["k_factor"], knot_rule=description["knot_rule"])
        design = np.column_stack([np.ones_like(x), x, x**3])
        if description["null"] == "custom-rows":  # the first coefficient is at most 0
            null = NullSpec(kind="shape", custom_rows=lambda spec: ConstraintMatrix(np.eye(1, spec.dim), "custom"))
        elif description["null"] == "custom-design":
            null = NullSpec(kind="parametric", custom_design=design)
        else:
            null = NullSpec.from_name(description["null"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if description["scan"] == "adaptive_test":
                result = adaptive_test(y, x, w, null, config, mu).to_dict()
            elif description["scan"] == "image_space_test":
                model = design if null.custom_design is not None else null.model
                result = image_space_test(y, x, w, model, config).to_dict()
            else:
                result = list(cs_contains(y - 0.1 * (y - y.mean()), y, x, w, config, null, mu))
        return json.dumps(result, sort_keys=True)
    except InputError as exc:  # exit 2, whatever its subclass
        return f"InputError: {exc}"
    except NumericalError as exc:
        return f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # an escaping exception is an outcome to compare too
        return f"uncaught {type(exc).__name__}: {exc}"


def digest_cases():
    """(description, data) of each input of the digest slice: the first DIGEST_SIZE seed-0 inputs with
    n <= DIGEST_MAX_N, in index order."""
    found, index = 0, 0
    while found < DIGEST_SIZE:
        description, data = case(0, index)
        if description["n"] <= DIGEST_MAX_N:
            found += 1
            yield description, data
        index += 1


def _worker(per_scan: int, seed: int, reproduce: bool, digest: bool) -> None:
    cases = digest_cases() if digest else (case(seed, index) for index in range(3 * per_scan))
    for description, data in cases:
        print(json.dumps({"id": description["id"], "outcome": _outcome(description, data)}), flush=True)
    if reproduce:
        from npivtest.sim import TABLE_IDS
        from npivtest.sim import reproduce as run_table

        for table in TABLE_IDS:
            rows = run_table(table, replications=4, seed=3)["rows"]
            print(json.dumps({"id": f"reproduce {table}", "outcome": json.dumps(rows, sort_keys=True)}), flush=True)


def _start(tree: pathlib.Path, args, out) -> subprocess.Popen:
    """The worker of one tree, writing its outcomes to the file out."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    argv = [sys.executable, __file__, "--worker", "--per-scan", str(args.per_scan), "--seed", str(args.seed),
            *(["--reproduce"] if args.reproduce else []), *(["--digest"] if args.write_digest else [])]
    return subprocess.Popen(argv, env=env, stdout=out, text=True)


def _read(out) -> dict:
    """{id: outcome} of a worker's output file."""
    out.seek(0)
    return {rec["id"]: rec["outcome"] for rec in map(json.loads, out)}


def _differences(old, new, at: str) -> list[str]:
    """Where new differs from old: a float by more than rel 1e-10, anything else at all."""
    if isinstance(old, float) and isinstance(new, float):
        same = math.isclose(old, new, rel_tol=1e-10) or (math.isnan(old) and math.isnan(new))
        return [] if same else [f"{at}: {old!r} -> {new!r}"]
    if type(old) is not type(new):
        return [f"{at}: {old!r} -> {new!r}"]
    if isinstance(old, dict):
        if old.keys() != new.keys():
            return [f"{at}: keys {sorted(old)} -> {sorted(new)}"]
        return [line for key in old for line in _differences(old[key], new[key], f"{at}.{key}")]
    if isinstance(old, list):
        if len(old) != len(new):
            return [f"{at}: length {len(old)} -> {len(new)}"]
        return [line for i, (a, b) in enumerate(zip(old, new)) for line in _differences(a, b, f"{at}[{i}]")]
    return [] if old == new else [f"{at}: {old!r} -> {new!r}"]


def _kind(outcome: str) -> str:
    return "report" if outcome.startswith(("{", "[")) else outcome.split(":", 1)[0]


def parsed(outcome: str):
    """An outcome as the digest holds it: a report's parsed JSON, an error's text."""
    return json.loads(outcome) if _kind(outcome) == "report" else outcome


def _brief(outcome: str) -> str:
    """An outcome as printed: a report's grid, decision and warnings (cs_contains: its verdict, binding J and
    candidates), or the error."""
    if _kind(outcome) != "report":
        return outcome
    result = json.loads(outcome)
    if isinstance(result, list):
        contained, binding, info = result
        return f"contained {contained}, binding J {binding}, J_list {info['J_list']}"
    grid = result["grid"]
    return (f"J_list {grid['J_list']}, J_max_hat {grid['J_max_hat']}, reject {result['reject']}, "
            f"warnings {result['warnings']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=pathlib.Path, help="the old and the new source tree")
    parser.add_argument("--per-scan", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reproduce", action="store_true", help="also compare reproduce rows of every table")
    parser.add_argument("--write-digest", type=pathlib.Path, metavar="PATH",
                        help="write the tree's outcomes of the digest slice to PATH")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--digest", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(args.per_scan, args.seed, args.reproduce, args.digest)
        return 0
    if args.write_digest:
        if len(args.trees) != 1:
            parser.error("give the one tree whose digest to write")
        with tempfile.TemporaryFile("w+") as out:
            if _start(args.trees[0].resolve(), args, out).wait():
                print("the tree's run failed", file=sys.stderr)
                return 1
            outcomes = _read(out)
        digest = [{"id": key, "outcome": parsed(text)} for key, text in outcomes.items()]
        args.write_digest.write_text(json.dumps(digest, indent=0) + "\n")
        return 0
    if len(args.trees) != 2:
        parser.error("give the old and the new source tree")
    with tempfile.TemporaryFile("w+") as old_out, tempfile.TemporaryFile("w+") as new_out:
        procs = [_start(tree.resolve(), args, out) for tree, out in zip(args.trees, (old_out, new_out))]
        failed = [proc.wait() for proc in procs]
        old, new = _read(old_out), _read(new_out)
    if any(failed) or old.keys() != new.keys():
        print("a tree's run failed", file=sys.stderr)
        return 1
    changes, moved = Counter(), 0
    for key in old:
        if old[key] == new[key]:
            continue
        if not _differences(parsed(old[key]), parsed(new[key]), ""):  # floats moved within rel 1e-10
            moved += 1
            continue
        description = case(args.seed, key)[0] if isinstance(key, int) else {"id": key, "scan": "reproduce"}
        changes[(description["scan"], _kind(old[key]), _kind(new[key]))] += 1
        print(json.dumps(description))
        old_text, new_text = (_brief(text) if isinstance(key, int) else text[:300] for text in (old[key], new[key]))
        print(f"  old: {old_text}\n  new: {new_text}")
    scans = Counter(SCANS[key % 3] for key in old if isinstance(key, int))
    print(f"\n{sum(scans.values())} inputs ({', '.join(f'{scan} {count}' for scan, count in scans.items())}) and "
          f"{len(old) - sum(scans.values())} reproduce tables; {sum(changes.values())} changed, {moved} more "
          "moved their floats within rel 1e-10")
    for (scan, before, after), count in sorted(changes.items()):
        print(f"  {scan}: {before} -> {after}: {count}")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
