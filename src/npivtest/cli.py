"""Command-line front end.

Subcommands: `test` (run the adaptive test on a CSV file), `cs`
(confidence-set membership of a candidate function), `simulate` (run an
experiment spec), `reproduce` (re-run a published table at desk scale).

CSV dialect: comma-separated, UTF-8, '.' decimals, header required. Columns:
y, x (or x1..xd), w (or w1..wdw), optional mu. Exit codes: 0 completed,
2 input error, 3 numerical failure.

`main` runs its process under the pool workers' allocator policy
(sim._keep_freed_pages); importing the module, or calling the library, does not.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
import warnings
from dataclasses import replace
from functools import cache

import numpy as np

from . import __version__
from .adaptive import _BASES, _MIN_N, _MODEL_KINDS, _NULLS, NullSpec, RunConfig, TestReport, adaptive_test, cs_contains
from .errors import InputError, NumericalError, _choice, _columns, _instance, _sequence
from .npiv import parametric_design
from .sim import TABLE_IDS, ExperimentSpec, _keep_freed_pages, reproduce, run_experiment

__all__ = ["main", "load_csv_dataset", "resolve_config", "render_report"]

_REPORT_FORMATS = ("json", "csv", "text")
_CS_FORMATS = ("json", "text")  # a containment verdict has no per-J table to write as CSV
_CANDIDATE_KINDS = ("coeffs", "parametric", "values")


def _json_safe(obj):
    """Make payloads RFC-compliant: non-finite floats become strings."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float):  # np.float64 included; every payload is built from Python scalars
        f = float(obj)
        if math.isfinite(f):
            return f
        return "NaN" if math.isnan(f) else ("Infinity" if f > 0 else "-Infinity")
    return obj


def dump_json(payload) -> str:
    return json.dumps(_json_safe(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


class CsvDataset:
    """Validated columns from a user CSV file."""

    def __init__(self, y, x, w, mu=None):
        self.y = y
        self.x = x
        self.w = w
        self.mu = mu

    @property
    def n(self) -> int:
        return self.y.shape[0]


def _stream_table(data: bytes):
    """(header, n x d table) of a CSV file's bytes, parsed in chunks by numpy's C reader, else None.

    None sends the file to the row loop. That happens where the csv module could split the file
    differently (no newline after the header, an empty or quoted header, a CR outside CRLF, a field
    over the csv module's limit) and where the C reader fails or returns an empty, ragged or
    non-finite table (it skips blank lines, as the row loop does). A leading BOM is skipped.
    """
    half = csv.field_size_limit() // 2
    # a field over the limit spans some aligned half-limit block, which then holds no newline
    if (b"\r" in data and data.count(b"\r") != data.count(b"\r\n")) or any(
            data.find(b"\n", i, i + half) < 0 for i in range(0, len(data) - half + 1, half)):
        return None
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig") as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            first = fh.readline()
            if not first.endswith("\n") or first == "\n" or '"' in first:
                return None
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:  # an undecodable byte raises UnicodeDecodeError, a ValueError
            return None
    header = [h.strip() for h in first[:-1].split(",")]
    return (header, table) if table.size and table.shape[1] == len(header) and np.all(np.isfinite(table)) else None


def _row_table(path: str, data: bytes):
    """(header, n x d table) by the row loop, which raises InputError naming the line and column.

    The whole file is decoded at once, so an undecodable byte is reported at its file offset.
    """
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = []
    try:
        header = [h.strip() for h in next(reader)]
        for lineno, row in enumerate(reader, start=2):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) != len(header):
                raise InputError(
                    f"{path}, line {lineno}: expected {len(header)} cells, got {len(row)}"
                )
            parsed = []
            for col, cell in zip(header, row):
                cell = cell.strip()
                if cell == "":
                    raise InputError(f"{path}, line {lineno}: missing value in column {col!r}")
                try:
                    val = float(cell)
                except ValueError:
                    raise InputError(
                        f"{path}, line {lineno}: non-numeric value {cell!r} in column {col!r}"
                    ) from None
                if not math.isfinite(val):
                    raise InputError(f"{path}, line {lineno}: non-finite value in column {col!r}")
                parsed.append(val)
            rows.append(parsed)
    except StopIteration:
        raise InputError(f"{path}: file is empty") from None
    except csv.Error as exc:
        raise InputError(f"{path}, line {reader.line_num}: {exc}") from None
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def load_csv_dataset(path: str) -> CsvDataset:
    """Read and validate a dataset; malformed files raise InputError with a line number.

    The file is read once, as bytes; a regular file streams through numpy's C reader, anything
    else goes to the row loop.
    """
    try:
        with open(_instance(path, (str, os.PathLike), "path"), "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    header, table = _stream_table(raw) or _row_table(path, raw)
    if len(set(header)) != len(header):
        raise InputError(f"{path}: duplicate column names in header")
    data = {name: table[:, i].copy() for i, name in enumerate(header)}

    def gather(prefix: str) -> np.ndarray | None:
        numbered = sorted(
            (name for name in data if name.startswith(prefix) and name[len(prefix):].isdigit()),
            key=lambda name: int(name[len(prefix):]),
        )
        if prefix in data:
            if numbered:  # one of the two would be dropped unread
                raise InputError(f"{path}: header names both {prefix!r} and {', '.join(map(repr, numbered))}; "
                                 f"use {prefix} or {prefix}1..{prefix}d, not both")
            return data[prefix]
        if not numbered:
            return None
        expected = [f"{prefix}{i}" for i in range(1, len(numbered) + 1)]
        if numbered != expected:
            raise InputError(f"{path}: {prefix}-columns must be consecutive ({expected}), got {numbered}")
        cols = np.column_stack([data[name] for name in numbered])
        return cols[:, 0] if cols.shape[1] == 1 else cols

    if "y" not in data:
        raise InputError(f"{path}: required column 'y' is missing")
    x = gather("x")
    w = gather("w")
    if x is None:
        raise InputError(f"{path}: regressor column 'x' (or x1..xd) is missing")
    if w is None:
        raise InputError(f"{path}: instrument column 'w' (or w1..wdw) is missing")
    n = data["y"].shape[0]
    if n < _MIN_N:
        raise InputError(f"{path}: need at least {_MIN_N} rows, got {n}")
    mu = data.get("mu")
    if mu is not None and np.any(mu < 0):
        raise InputError(f"{path}: weight column 'mu' must be nonnegative")
    return CsvDataset(y=data["y"], x=x, w=w, mu=mu)


def _parse_grid(text: str):
    """--grid as its comma-separated dims, or else as the mode it names, which RunConfig's rule judges."""
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        return text


def _read_json(path: str, what: str) -> dict:
    """The JSON object a file holds; an unreadable file, invalid JSON or a non-object is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{what} {path} must hold a JSON object")
    return doc


def resolve_config(args) -> RunConfig:
    """The config file's values, each overridden by its flag when the flag is given."""
    base: dict = {}
    if getattr(args, "config", None):
        base = _read_json(args.config, "config")
    cfg = RunConfig.from_dict(base)
    updates: dict = {}
    if getattr(args, "alpha", None) is not None:
        updates["alpha"] = args.alpha
    if getattr(args, "basis", None) is not None:
        updates["basis"] = args.basis
    if getattr(args, "grid", None) is not None:
        updates["grid"] = _parse_grid(args.grid)
    if getattr(args, "kfactor", None) is not None:
        updates["k_factor"] = args.kfactor
    if getattr(args, "support", None) is not None:
        try:  # RunConfig's interval rule judges the pair
            updates["support"] = tuple(float(tok) for tok in args.support.split(","))
        except ValueError:
            raise InputError(f"--support must be 'lo,hi', got {args.support!r}") from None
    if getattr(args, "quantile_knots", False):
        updates["knot_rule"] = "quantile"
    return replace(cfg, **updates)


def render_report(report, fmt: str) -> str:
    d, fmt = _instance(report, TestReport, "report").to_dict(), _choice(fmt, "report format", _REPORT_FORMATS)
    if fmt == "json":
        return dump_json(d)
    if fmt == "csv":
        buf = io.StringIO()
        fields = ["J", "K", "D", "v", "s_hat", "gamma", "eta", "W", "p_value", "n_active"]
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for rec in d["per_J"]:
            writer.writerow({k: rec.get(k) for k in fields})
        return buf.getvalue()
    lines = [
        f"adaptive {d['statistic']} test | null: {d['null']} | alpha = {d['alpha']:g}",
        f"candidate set ({d['grid']['mode']}): {d['grid']['J_list']}  "
        f"[J_max_hat = {d['grid']['J_max_hat']}]",
        "",
        f"{'J':>4} {'K':>5} {'W_J':>12} {'gamma':>6} {'eta':>10} {'D_J':>13} {'v_J':>12} {'p_J':>9}",
    ]
    for rec in d["per_J"]:  # W (inf where v = 0), p_value and W_reported are floats
        lines.append(
            f"{rec['J']:>4} {rec['K']:>5} {rec['W']:>12.4f} {rec['gamma']:>6} "
            f"{rec['eta']:>10.4f} {rec['D']:>13.6g} {rec['v']:>12.6g} {rec['p_value']:>9.4f}"
        )
    lines += [
        "",
        f"reject H0: {'yes' if d['reject'] else 'no'}",
        f"selected J set: {d['J_selected_set']}   reported J: {d['J_reported']}   "
        f"W at reported J: {d['W_reported']:.4f}",
        f"p value: {d['p_value']:.4g}  (Bonferroni threshold alpha/#candidates = {d['p_threshold']:.4g})",
    ]
    return "\n".join(lines + _warnings_line(d["warnings"])) + "\n"


def _warnings_line(notices) -> list[str]:
    """The one `warnings: ...` line of a text report, or none for a run without notices."""
    return ["warnings: " + "; ".join(notices)] if notices else []


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_test(args) -> int:
    data = load_csv_dataset(args.data)
    config = resolve_config(args)
    null = NullSpec.from_name(args.null)
    report = adaptive_test(data.y, data.x, data.w, null, config=config, mu=data.mu)
    _emit(render_report(report, args.format), args.out)
    return 0


def _load_candidate(path: str, config: RunConfig):
    doc = _read_json(path, "candidate")
    kind = _choice(doc.get("kind"), "candidate kind", _CANDIDATE_KINDS)
    if kind == "coeffs":
        basis = doc.get("basis")
        coeffs = doc.get("coefficients")
        if not isinstance(basis, dict) or coeffs is None:
            raise InputError("coeffs candidate needs 'basis' and 'coefficients'")
        own = replace(config, basis=basis.get("name", config.basis), support=basis.get("support", config.support),
                      knot_rule="equispaced")
        return coeffs, own.psi_spec(basis.get("dim", len(_sequence(coeffs, "coefficients"))))
    if kind == "parametric":
        model = _choice(doc.get("model"), "candidate model", _MODEL_KINDS)
        theta = _columns(doc.get("theta", []), "theta", 1)

        def fn(x, model=model, theta=theta):
            z, _ = parametric_design(x, model)
            if z.shape[1] != theta.shape[0]:
                raise InputError(f"theta has {theta.shape[0]} entries, design needs {z.shape[1]}")
            return z @ theta

        return fn
    return doc.get("values", [])  # a values candidate


def _cmd_cs(args) -> int:
    data = load_csv_dataset(args.data)
    config = resolve_config(args)
    null = NullSpec.from_name(args.null)
    candidate = _load_candidate(args.candidate, config)
    contained, binding, detail = cs_contains(candidate, data.y, data.x, data.w, config=config, null=null, mu=data.mu)
    payload = {
        "contained": contained,
        "binding_J": binding,
        "alpha": detail["alpha"],
        "J_list": detail["J_list"],
        "per_J": detail["per_J"],
        "config": config.to_dict(),
        "warnings": detail["warnings"],
    }
    if args.format == "text":
        lines = [f"contained in the {100 * (1 - config.alpha):g}% confidence set: {'yes' if contained else 'no'}"]
        if binding is not None:
            lines.append(f"first violated candidate dimension: J = {binding}")
        _emit("\n".join(lines + _warnings_line(detail["warnings"])) + "\n", args.out)
    else:
        _emit(dump_json(payload), args.out)
    return 0


def _header(rows: list[dict], front: tuple[str, ...]) -> list[str]:
    """The keys of rows: those in front first, in its order, then the rest sorted."""
    fields = sorted({key for row in rows for key in row})
    return [f for f in front if f in fields] + [f for f in fields if f not in front]


def _rows_csv(rows: list[dict], front: tuple[str, ...]) -> str:
    """Rows as CSV under the columns _header gives; a missing cell is empty."""
    columns = _header(rows, front)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _json_safe(row.get(k, "")) for k in columns})
    return buf.getvalue()


def _cmd_simulate(args) -> int:
    doc = _read_json(args.spec, "spec")
    if args.reps is not None:
        doc["replications"] = args.reps
    if args.seed is not None:
        doc["master_seed"] = args.seed
    spec = ExperimentSpec.from_dict(doc)
    started = time.perf_counter()
    summary = run_experiment(spec, jobs=args.jobs)
    summary.metadata["version"] = __version__
    summary.metadata["timings"]["wall_seconds"] = time.perf_counter() - started
    base = args.out or "mc_results"
    with open(base + ".json", "w", encoding="utf-8") as fh:
        fh.write(dump_json(summary.to_dict()))
    with open(base + ".csv", "w", encoding="utf-8") as fh:
        fh.write(_rows_csv(summary.rows(), ("n", "xi", "c0", "c_a", "c_b", "alpha", "reject_rate", "se", "avg_J",
                                            "replications", "failures", "adjusted_crit")))
    sys.stdout.write(f"wrote {base}.json and {base}.csv ({len(summary.rows())} rows)\n")
    return 0


def _cmd_reproduce(args) -> int:
    result = reproduce(args.table, replications=args.reps, seed=args.seed if args.seed is not None else 0,
                       jobs=args.jobs, n_values=args.n, xi_values=args.xi, c0_values=args.c0,
                       k_factors=args.kfactor)
    rows = result["rows"]
    if args.format == "json":
        payload = {"table_id": result["table_id"], "rows": rows, "version": __version__}
        _emit(dump_json(payload), args.out)
        return 0
    front = ("n", "design", "statistic", "c0", "c_a", "c_b", "xi", "k_factor",
             "alpha", "metric", "ours", "se", "published")
    if args.format == "csv":
        _emit(_rows_csv(rows, front), args.out)
        return 0
    # text: fixed-width dump of the same rows
    columns = _header(rows, front)
    lines = ["  ".join(f"{f:>10}" for f in columns)]
    for row in rows:
        cells = []
        for f in columns:
            v = row.get(f, "")
            cells.append(f"{v:>10.4f}" if isinstance(v, float) and math.isfinite(v) else f"{str(v):>10}")
        lines.append("  ".join(cells))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _add_common_test_flags(p: argparse.ArgumentParser, formats: tuple[str, ...]):
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--alpha", type=float, default=None, help="nominal level (default 0.05)")
    p.add_argument("--null", choices=_NULLS, default="decreasing", help="null hypothesis")
    p.add_argument("--basis", choices=_BASES, default=None, help="sieve family (default bspline2)")
    p.add_argument("--grid", default=None, help="candidate rule: dyadic, knots, or e.g. 3,4,5")
    p.add_argument("--kfactor", type=int, default=None, help="instrument dimension K = c*J, c >= 2 (default 4)")
    p.add_argument("--support", default=None, help="basis support as 'lo,hi' (default 0,1)")
    p.add_argument("--quantile-knots", action="store_true", help="place interior knots at data quantiles")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--format", choices=formats, default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="npivtest",
                                     description="Adaptive restriction tests for IV regression")
    parser.add_argument("--version", action="version", version=f"npivtest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run the adaptive test on CSV data")
    p_test.add_argument("data", help="CSV file with columns y, x (or x1..xd), w (or w1..wdw), optional mu")
    _add_common_test_flags(p_test, _REPORT_FORMATS)
    p_test.set_defaults(func=_cmd_test)

    p_cs = sub.add_parser("cs", help="confidence-set membership of a candidate function")
    p_cs.add_argument("data", help="CSV data file")
    p_cs.add_argument("candidate", help="candidate JSON (kind: coeffs | parametric | values)")
    _add_common_test_flags(p_cs, _CS_FORMATS)
    p_cs.set_defaults(func=_cmd_cs)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment spec")
    p_sim.add_argument("spec", help="experiment spec JSON file")
    p_sim.add_argument("--reps", type=int, default=None, help="override the spec's replication count")
    p_sim.add_argument("--seed", type=int, default=None, help="override the spec's master seed")
    p_sim.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_sim.add_argument("--out", default=None, help="output basename (default mc_results)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_rep = sub.add_parser("reproduce", help="re-run a published table/figure at desk scale")
    p_rep.add_argument("table", choices=TABLE_IDS)
    p_rep.add_argument("--reps", type=int, default=1000)
    p_rep.add_argument("--seed", type=int, default=None)
    p_rep.add_argument("--jobs", type=int, default=1)
    p_rep.add_argument("--n", type=int, nargs="+", default=None, help="only these sample sizes")
    p_rep.add_argument("--xi", type=float, nargs="+", default=None, help="only these instrument strengths")
    p_rep.add_argument("--c0", type=float, nargs="+", default=None, help="only these c0 values (T1)")
    p_rep.add_argument("--kfactor", type=int, nargs="+", default=None, help="only these K = c*J factors")
    p_rep.add_argument("--out", default=None)
    p_rep.add_argument("--format", choices=_REPORT_FORMATS, default="text")
    p_rep.set_defaults(func=_cmd_reproduce)
    return parser


_parser = cache(build_parser)  # main builds its parser once per process


def main(argv=None) -> int:
    _keep_freed_pages()
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
