import argparse
import csv
import dataclasses
import json
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import npivtest.cli as cli_module
import npivtest.sim as sim_module
from npivtest.adaptive import NullSpec, RunConfig, adaptive_test, cs_contains, image_space_scan, image_space_test
from npivtest.basis import BasisSpec, deriv_constraints
from npivtest.cli import dump_json, load_csv_dataset, main
from npivtest.dgp import DesignConfig, HSpec, generate
from npivtest.errors import InputError
from npivtest.randdist import RngStream
from npivtest.sim import reproduce

DATA_DIR = pathlib.Path(__file__).parent / "data"
ENGEL = str(DATA_DIR / "engel_style.csv")

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

SCHEMA_DIR = pathlib.Path(__file__).parent.parent / "src" / "npivtest" / "schemas"


def run_cli(*argv):
    return main(list(argv))


def write_csv(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def validate(payload, schema_name):
    if jsonschema is None:
        pytest.skip("jsonschema unavailable")
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.validate(payload, schema)


# ---------------------------------------------------------------- CSV loading


def test_load_engel_layout():
    ds = load_csv_dataset(ENGEL)
    assert ds.n == 400
    assert ds.w.ndim == 1  # single w1 column collapses to a vector
    assert ds.mu is None


def test_csv_error_reports_line_number(tmp_path):
    path = write_csv(tmp_path, "bad.csv", "y,x,w\n1,2,3\n4,oops,6\n")
    from npivtest.errors import InputError

    with pytest.raises(InputError, match="line 3"):
        load_csv_dataset(path)


def test_csv_missing_column(tmp_path):
    path = write_csv(tmp_path, "noy.csv", "z,x,w\n" + "\n".join("1,2,3" for _ in range(25)))
    from npivtest.errors import InputError

    with pytest.raises(InputError, match="'y'"):
        load_csv_dataset(path)


def test_csv_multivariate_instruments(tmp_path):
    rows = "\n".join("0.1,0.5,0.4,0.6" for _ in range(30))
    path = write_csv(tmp_path, "mv.csv", "y,x,w1,w2\n" + rows)
    ds = load_csv_dataset(path)
    assert ds.w.shape == (30, 2)


def _rows(n=25, cols=3):
    rng = np.random.default_rng(n + cols)
    return [",".join(f"{v:.17g}" for v in row) for row in rng.uniform(0.0, 1.0, size=(n, cols))]


# _BULK texts stream through numpy's C reader (some still fail validation after it); _ROW_LOOP texts fall
# back to the row loop
_BULK = {
    "plain": "y,x,w\n" + "\n".join(_rows()) + "\n",
    "bom": "\ufeffy,x,w\n" + "\n".join(_rows()) + "\n",
    "no-final-newline": "y,x,w\n" + "\n".join(_rows()),
    "crlf": "y,x,w\r\n" + "\r\n".join(_rows()) + "\r\n",
    "blank-lines": "y,x,w\n" + "\n\n".join(_rows()) + "\n\n",
    "padded": " y , x,w \n" + "\n".join(" " + r.replace(",", " ,\t") + "  " for r in _rows()),
    "multivariate": "y,x1,x2,w1,w2\n" + "\n".join(_rows(cols=5)),
    "mu": "y,x,w,mu\n" + "\n".join(_rows(cols=4)),
    "few-rows": "y,x,w\n" + "\n".join(_rows(n=5)),
    "blocks": "y,x,w\n" + "\n".join(_rows(n=5000)) + "\n",
    "gap-in-numbered-columns": "y,x1,x3,w\n" + "\n".join(_rows(cols=4)),
    "duplicate-header": "y,y,x,w\n" + "\n".join(_rows(cols=4)),
    "negative-mu": "y,x,w,mu\n" + "\n".join(_rows(cols=4)) + "\n0.1,0.2,0.3,-1\n",
}
_ROW_LOOP = {
    "empty": "",
    "header-only": "y,x,w\n",
    "underscore": "y,x,w\n" + "\n".join(_rows()) + "\n1_0,0.5,0.5\n",
    "quoted-cells": "y,x,w\n" + "\n".join(f'"{r}"'.replace(",", '","') for r in _rows()),
    "quoted-header": '"y","x","w"\n' + "\n".join(_rows()),
    "bom-quoted-header": '\ufeff"y","x","w"\n' + "\n".join(_rows()),
    "whitespace-lines": "y,x,w\n" + "\n  \t\n".join(_rows()),
    "comma-only-lines": "y,x,w\n" + "\n , ,\n".join(_rows()),
    "lone-cr": "y,x,w\r" + "\r".join(_rows()),
    "nan": "y,x,w\n" + "\n".join(_rows()) + "\nnan,0.5,0.5\n",
    "inf": "y,x,w\n" + "\n".join(_rows()) + "\n0.5,-inf,0.5\n",
    "huge": "y,x,w\n" + "\n".join(_rows()) + "\n0.5,1e999,0.5\n",
    "trailing-commas": "y,x,w\n" + "\n".join(r + "," for r in _rows()),
    "trailing-comma-header": "y,x,w,\n" + "\n".join(r + "," for r in _rows()),
    "short-row": "y,x,w\n" + "\n".join(_rows()) + "\n1,2\n",
    "ragged-pair": "y,x,w\n" + "\n".join(_rows()) + "\n1,2\n1,2,3,4\n",
    "blank-cell": "y,x,w\n" + "\n".join(_rows()) + "\n0.1,,0.5\n",
    "text-cell": "y,x,w\n" + "\n".join(_rows()) + "\n0.1,oops,0.5\n",
    "bad-cell-in-second-block": "y,x,w\n" + "\n".join(_rows(n=3000)[:2500] + ["0.1,0.2,x"] + _rows(n=3000)[2500:]),
    "over-long-field": "y,x,w\n" + "\n".join(_rows()) + "\n0." + "1" * 131_100 + ",0.5,0.5\n",
}


def _load_outcome(path):
    try:
        ds = load_csv_dataset(path)
    except InputError as exc:
        return str(exc)
    return [ds.y, ds.x, ds.w, ds.mu]


@pytest.mark.parametrize("name", [*_BULK, *_ROW_LOOP])
def test_csv_bulk_parse_matches_row_loop(tmp_path, monkeypatch, name):
    text = _BULK.get(name, _ROW_LOOP.get(name))
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    assert (cli_module._stream_table(text.encode("utf-8")) is not None) == (name in _BULK)
    bulk = _load_outcome(str(path))
    monkeypatch.setattr(cli_module, "_stream_table", lambda data: None)
    rows = _load_outcome(str(path))
    if isinstance(rows, str):
        assert bulk == rows
        return
    assert not isinstance(bulk, str), bulk
    for got, want in zip(bulk, rows):
        assert (got is None) == (want is None)
        if want is not None:
            assert got.dtype == want.dtype and got.shape == want.shape and got.flags.c_contiguous
            np.testing.assert_array_equal(got, want)


def test_csv_byte_order_mark_is_skipped(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with a BOM, which once hid the first header name
    for plain, bom in (("plain", "bom"), ("quoted-header", "bom-quoted-header")):
        outcomes = []
        for name in (plain, bom):
            path = tmp_path / f"{name}.csv"
            path.write_bytes(_BULK.get(name, _ROW_LOOP.get(name)).encode("utf-8"))
            outcomes.append(_load_outcome(str(path)))
        assert not isinstance(outcomes[1], str), outcomes[1]
        for got, want in zip(*outcomes):
            np.testing.assert_array_equal(got, want)


def test_csv_load_peak_memory_is_a_small_multiple_of_the_file(tmp_path):
    # the C reader takes the body in chunks: no whole-file text, line list or StringIO copy
    path = tmp_path / "big.csv"
    table = np.random.default_rng(20_000).uniform(size=(20_000, 3))
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header="y,x,w", comments="")
    tracemalloc.start()
    try:
        ds = load_csv_dataset(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(ds.y, table[:, 0])
    assert peak < 3 * path.stat().st_size


def test_csv_malformed_files_keep_their_messages(tmp_path):
    cases = {
        "": "file is empty",
        "y,x,w\n": "need at least 20 rows, got 0",
        "y,x,w\n1,2\n": "line 2: expected 3 cells, got 2",
        "y,x,w\n0.1,0.2,0.3\nnan,0.5,0.5\n": "line 3: non-finite value in column 'y'",
        "y,x,w\n0.1, ,0.5\n": "line 2: missing value in column 'x'",
        "y,x,w\n0.1,0.2,0.3\n\n0.1,b,0.5\n": "line 4: non-numeric value 'b' in column 'x'",
        "y,x,w\n0.1,0.2,0.3\n": "need at least 20 rows, got 1",
        "y,y,x,w\n1,1,2,3\n": "duplicate column names in header",
        "y,x1,x3,w\n1,1,2,3\n": "x-columns must be consecutive",
        "y,x,x1,w,w1\n1,1,2,3,4\n": "header names both 'x' and 'x1'",
        "y,x,w,w2,w1\n1,1,2,3,4\n": "header names both 'w' and 'w1', 'w2'",
        "y,w\n1,2\n": "regressor column 'x' (or x1..xd) is missing",
        "y,x\n1,2\n": "instrument column 'w' (or w1..wdw) is missing",
        "y,x,w,mu\n" + "\n".join(["0.1,0.2,0.3,-1"] * 20): "weight column 'mu' must be nonnegative",
    }
    for i, (text, message) in enumerate(cases.items()):
        path = write_csv(tmp_path, f"bad{i}.csv", text)
        with pytest.raises(InputError) as info:
            load_csv_dataset(path)
        assert str(info.value).startswith(path) and message in str(info.value), text


def test_csv_undecodable_file_is_an_input_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"y,x,w\n0.1,0.2,\xff\n")
    with pytest.raises(InputError, match="cannot read"):
        load_csv_dataset(str(path))


# ------------------------------------------------------------------ cmd: test


def test_cmd_test_text_report(tmp_path, capsys):
    code = run_cli("test", ENGEL, "--null", "decreasing", "--grid", "knots", "--kfactor", "2")
    out = capsys.readouterr().out
    assert code == 0
    assert "reject H0:" in out
    assert "p value:" in out
    assert "W_J" in out


def test_cmd_test_text_report_lists_the_warnings(capsys):
    # engel_style.csv has x and w in [0, 1]; a narrower support clamps some of each
    code = run_cli("test", ENGEL, "--null", "decreasing", "--support", "0.1,0.9")
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == ("warnings: 87 points of x outside [0.1, 0.9] were clamped; "
                                                        "85 points of w outside [0.1, 0.9] were clamped")


def test_cmd_test_engel_style_report_shape(tmp_path):
    out_path = tmp_path / "rep.json"
    code = run_cli(
        "test", ENGEL, "--null", "increasing", "--grid", "3,4,5", "--kfactor", "4",
        "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    validate(payload, "report.schema.json")
    assert payload["grid"]["J_list"] == [3, 4, 5]
    assert {"W_reported", "p_value", "reject", "J_selected_set"} <= set(payload)
    assert payload["p_threshold"] == pytest.approx(0.05 / 3.0)


@pytest.mark.parametrize("grid", ["dyadic", "knots"])
def test_cmd_test_quantile_knots_with_scanned_grid(tmp_path, grid):
    out_path = tmp_path / "rep.json"
    code = run_cli("test", ENGEL, "--quantile-knots", "--grid", grid, "--format", "json", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    validate(payload, "report.schema.json")
    assert payload["config"]["knot_rule"] == "quantile"
    assert payload["grid"]["mode"] == grid


def test_cmd_test_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["test", ENGEL, "--null", "decreasing", "--format", "json"]
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cmd_test_golden_csv_pathway(tmp_path):
    out_path = tmp_path / "golden.json"
    code = run_cli(
        "test", ENGEL, "--null", "decreasing", "--grid", "knots", "--kfactor", "2",
        "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    got = json.loads(out_path.read_text())
    expected = json.loads((DATA_DIR / "golden_engel_report.json").read_text())
    assert got == expected


def test_cmd_test_csv_format_is_the_per_candidate_table(capsys):
    args = ["test", ENGEL, "--null", "decreasing", "--grid", "knots", "--kfactor", "2"]
    assert run_cli(*args, "--format", "json") == 0
    per_j = json.loads(capsys.readouterr().out)["per_J"]
    assert run_cli(*args, "--format", "csv") == 0
    lines = capsys.readouterr().out.splitlines()
    fields = ["J", "K", "D", "v", "s_hat", "gamma", "eta", "W", "p_value", "n_active"]
    assert lines[0] == ",".join(fields)
    assert len(per_j) > 1
    assert [{k: float(v) for k, v in row.items()} for row in csv.DictReader(lines)] == per_j


def test_custom_nulls_have_labels_the_report_schema_accepts():
    data = generate(DesignConfig("I", 200, 0.5, HSpec("sin", c_a=0.5), RngStream(4, 2)))
    rows = NullSpec(kind="shape", custom_rows=lambda spec: deriv_constraints(spec, "decreasing"))
    design = NullSpec(kind="parametric", custom_design=data.x[:, None])
    reports = [
        ("custom", adaptive_test(data.y, data.x, data.w, rows)),
        ("parametric:custom", adaptive_test(data.y, data.x, data.w, design)),
        ("parametric:custom", image_space_test(data.y, data.x, data.w, data.x[:, None])),
    ]
    for label, report in reports:
        payload = json.loads(dump_json(report.to_dict()))
        assert payload["null"] == label
        validate(payload, "report.schema.json")


def test_cmd_test_malformed_inputs_exit_2(tmp_path, capsys):
    cases = {
        "empty.csv": "",
        "header_only.csv": "y,x,w\n",
        "short_row.csv": "y,x,w\n1,2\n" * 25,
        "nan.csv": "y,x,w\n" + "\n".join("nan,0.5,0.5" for _ in range(25)),
        "blankcell.csv": "y,x,w\n" + "\n".join("0.1,,0.5" for _ in range(25)),
        "text.csv": "y,x,w\n" + "\n".join("a,b,c" for _ in range(25)),
        "toofew.csv": "y,x,w\n0.1,0.2,0.3\n",
        "dup.csv": "y,y,x,w\n" + "\n".join("1,1,2,3" for _ in range(25)),
        "x-and-x1.csv": "y,x,x1,w,w1\n" + "\n".join(_rows(n=25, cols=5)),
    }
    for name, text in cases.items():
        path = write_csv(tmp_path, name, text)
        code = run_cli("test", path, "--null", "decreasing")
        capsys.readouterr()
        assert code == 2, name


def test_cmd_test_nonfinite_statistics_exit_3(tmp_path, capsys):
    # y x 1e160 overflows D and v; the report used to carry W = NaN and reject: false
    data = generate(DesignConfig("I", 200, 0.5, HSpec("sin", c_a=2.0), RngStream(18, 0)))
    path = tmp_path / "huge.csv"
    np.savetxt(path, np.column_stack([data.y * 1e160, data.x, data.w]), fmt="%.17g", delimiter=",",
               header="y,x,w", comments="")
    code = run_cli("test", str(path), "--grid", "knots", "--kfactor", "2", "--format", "json")
    assert code == 3
    assert "non-finite statistic" in capsys.readouterr().err


@pytest.mark.parametrize("scale, message", [(1e-200, "underflowed"), (1e200, "non-finite statistic")])
def test_cmd_test_y_beyond_the_float_range_exit_3(tmp_path, capsys, scale, message):
    # at y x 1e-200 the squares in D and v underflow to 0, which used to report reject: false with p = 1
    data = generate(DesignConfig("I", 1000, 0.5, HSpec("sin", c_a=2.0, c_b=1.0), RngStream(18, 0)))
    path = tmp_path / "scaled.csv"
    np.savetxt(path, np.column_stack([data.y * scale, data.x, data.w]), fmt="%.17g", delimiter=",",
               header="y,x,w", comments="")
    code = run_cli("test", str(path), "--format", "json")
    assert code == 3
    assert message in capsys.readouterr().err


def test_cmd_test_lapack_failure_exit_3(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "matrix_rank", failing)
    assert run_cli("test", ENGEL, "--null", "decreasing", "--grid", "knots", "--kfactor", "2") == 3
    assert "Singular matrix" in capsys.readouterr().err


def test_cmd_test_multivariate_x_exit_2(tmp_path, capsys):
    gen = np.random.default_rng(6)
    table = np.column_stack([gen.normal(size=300), gen.uniform(size=(300, 4))])
    path = tmp_path / "x2.csv"
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header="y,x1,x2,w1,w2", comments="")
    for null in ("decreasing", "linear"):
        assert run_cli("test", str(path), "--null", null) == 2
        assert "needs one regressor as a 1-d x, got x of shape (300, 2)" in capsys.readouterr().err


def test_cmd_test_explicit_grid_with_k_at_least_n_exit_2(capsys):
    # engel_style.csv has 400 rows; K = 4 J = 400 at J = 100
    assert run_cli("test", ENGEL, "--null", "decreasing", "--grid", "3,100") == 2
    assert "its candidate J=100 needs K=400 instrument columns, whose gram B'B is singular at n=400" \
        in capsys.readouterr().err


def test_cmd_test_sample_too_small_for_the_basis_exit_2(tmp_path, capsys):
    # bspline3's minimum J = 4 needs K = 16 instrument columns; B'B is singular on this 60-row sample
    data = generate(DesignConfig("I", 60, 0.5, HSpec("sin", c_a=0.5), RngStream(2, 11)))
    path = tmp_path / "small.csv"
    np.savetxt(path, np.column_stack([data.y, data.x, data.w]), fmt="%.17g", delimiter=",",
               header="y,x,w", comments="")
    assert run_cli("test", str(path), "--basis", "bspline3") == 2
    assert "minimum candidate J=4 needs K=16 instrument columns, whose gram B'B is singular at n=60" \
        in capsys.readouterr().err


@pytest.mark.parametrize("x_kind, distinct", [("constant", 1), ("two-point", 2)])
def test_cmd_test_degenerate_regressor_exit_2(tmp_path, capsys, x_kind, distinct):
    # the basis-minimum candidate's gram Psi'Omega Psi is singular when x has fewer distinct values than J
    gen = np.random.default_rng(21)
    x = np.full(200, 0.5) if x_kind == "constant" else gen.integers(0, 2, 200).astype(float)
    path = tmp_path / "degenerate.csv"
    np.savetxt(path, np.column_stack([gen.normal(size=200), x, gen.uniform(size=200)]), fmt="%.17g",
               delimiter=",", header="y,x,w", comments="")
    for flags, j in ((("--null", "decreasing"), 3), (("--null", "linear"), 3),
                     (("--basis", "bspline3", "--grid", "knots"), 4)):
        assert run_cli("test", str(path), *flags) == 2
        assert f"minimum candidate J={j} is singular at n=200 with {distinct} distinct x value(s)" \
            in capsys.readouterr().err
    # an explicit grid's entry is a candidate the sample cannot carry too
    assert run_cli("test", str(path), "--grid", "3,4") == 2
    assert f"minimum candidate J=3 is singular at n=200 with {distinct} distinct x value(s)" in capsys.readouterr().err


def test_cmd_test_all_zero_weights_exit_2(tmp_path, capsys):
    data = generate(DesignConfig("I", 200, 0.5, HSpec("mono", c0=0.5), RngStream(20, 1)))
    path = tmp_path / "zero_mu.csv"
    np.savetxt(path, np.column_stack([data.y, data.x, data.w, np.zeros(200)]), fmt="%.17g", delimiter=",",
               header="y,x,w,mu", comments="")
    for null in ("decreasing", "linear"):
        assert run_cli("test", str(path), "--null", null) == 2
        assert "weights must have at least one positive entry" in capsys.readouterr().err


def test_cmd_test_missing_file_exit_2(capsys):
    assert run_cli("test", "/nonexistent/data.csv") == 2
    assert "input error" in capsys.readouterr().err


def test_cmd_test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "alpha": 0.10, "k_factor": 2}))
    out_path = tmp_path / "r.json"
    code = run_cli(
        "test", ENGEL, "--config", str(cfg), "--alpha", "0.05",
        "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["alpha"] == 0.05  # flag wins
    assert payload["config"]["k_factor"] == 2  # file value survives


@pytest.mark.parametrize("flags, config", [
    (["--support", "1"], None),
    (["--support", "a,b"], None),
    (["--support", "1,0"], None),
    ([], {"alpha": "x"}),
    ([], {"k_factor": "4"}),
    ([], {"grid": 5}),
    ([], {"grid": ["a"]}),
    ([], {"grid": [3.9, 8]}),
    ([], {"grid": ["3"]}),
    ([], {"grid": [True, 4]}),
    ([], {"support": [0]}),
    ([], {"support": None}),
    ([], {"basis": []}),
], ids=["support-one-value", "support-text", "support-reversed", "alpha-text", "k_factor-text", "grid-number",
        "grid-text-entry", "grid-float-entry", "grid-numeric-text-entry", "grid-bool-entry", "support-one-entry",
        "support-null", "basis-list"])
def test_cmd_test_malformed_config_exit_2(tmp_path, capsys, flags, config):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        flags = [*flags, "--config", str(cfg)]
    assert run_cli("test", ENGEL, *flags, "--format", "json") == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert "Traceback" not in err


def test_cmd_test_malformed_grid_flag_exit_2(capsys):
    assert run_cli("test", ENGEL, "--grid", "3,x") == 2
    assert capsys.readouterr().err == "input error: unknown grid mode '3,x'; expected one of ('dyadic', 'knots')\n"


def test_cmd_test_config_naming_rcond_exit_2(tmp_path, capsys):
    # the fits take their rank cutoff from the design's shape; a config file has no rcond to set
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rcond": 1e-10}))
    assert run_cli("test", ENGEL, "--config", str(cfg), "--format", "json") == 2
    assert "unknown config key 'rcond'; expected one of" in capsys.readouterr().err


def test_every_run_config_field_is_reachable():
    # a RunConfig field that no test/cs flag and no experiment spec sets is a dead knob
    def changed(config, base):
        return {f.name for f in dataclasses.fields(RunConfig) if getattr(config, f.name) != getattr(base, f.name)}

    parser = cli_module.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    samples = {"--alpha": ["0.1"], "--grid": ["3,4", "knots"], "--kfactor": ["2"], "--support": ["-1,2"]}
    reached = set()
    for command, positional in (("test", [ENGEL]), ("cs", [ENGEL, "candidate.json"])):
        default = cli_module.resolve_config(parser.parse_args([command, *positional]))
        for action in commands[command]._actions:
            flag = action.option_strings[-1] if action.option_strings else None
            if flag in (None, "--help", "--config"):  # a config file names fields, not flags
                continue
            given = [flag] if action.nargs == 0 else [f"{flag}={v}" for v in action.choices or samples.get(flag, ["x"])]
            for arg in given:
                reached |= changed(cli_module.resolve_config(parser.parse_args([command, *positional, arg])), default)
    spec = sim_module.ExperimentSpec()
    for change in ({"alphas": (0.1,)}, {"basis": "bspline3"}, {"grid_mode": "dyadic"}, {"k_factor": 4}):
        reached |= changed(dataclasses.replace(spec, **change).run_config(), spec.run_config())
    assert reached == {f.name for f in dataclasses.fields(RunConfig)}


@pytest.mark.parametrize("content", [None, b"{not json", b"[1, 2]", b'{"alpha": "\xff"}'],
                         ids=["missing", "bad-json", "json-list", "non-utf8"])
@pytest.mark.parametrize("command", ["test-config", "cs", "simulate"])
def test_unreadable_json_inputs_exit_2(tmp_path, capsys, command, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_bytes(content)
    argv = {"test-config": ("test", ENGEL, "--config", str(path)), "cs": ("cs", ENGEL, str(path)),
            "simulate": ("simulate", str(path))}[command]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["test", "cs"])
def test_test_and_cs_take_no_seed(tmp_path, capsys, command):
    # test and cs draw no random numbers, so neither has a seed to set
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"kind": "parametric", "model": "linear", "theta": [0.0, -0.2]}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1}))
    argv = (command, ENGEL, *((str(cand),) if command == "cs" else ()))
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--seed", "1")
    assert exc.value.code == 2
    assert run_cli(*argv, "--config", str(cfg)) == 2
    assert "unknown config key 'seed'; expected one of" in capsys.readouterr().err


# -------------------------------------------------------------------- cmd: cs


def test_cmd_cs_parametric_candidate(tmp_path):
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"kind": "parametric", "model": "linear", "theta": [0.0, -0.2]}))
    out_path = tmp_path / "cs.json"
    code = run_cli(
        "cs", ENGEL, str(cand), "--null", "linear", "--grid", "knots", "--kfactor", "2",
        "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    validate(payload, "containment.schema.json")
    assert payload["contained"] in (True, False)


def test_cmd_cs_shifted_candidate_excluded(tmp_path, capsys):
    near = tmp_path / "near.json"
    far = tmp_path / "far.json"
    near.write_text(json.dumps({"kind": "parametric", "model": "linear", "theta": [0.0, -0.2]}))
    far.write_text(json.dumps({"kind": "parametric", "model": "linear", "theta": [25.0, -0.2]}))
    out_near, out_far = tmp_path / "n.json", tmp_path / "f.json"
    assert run_cli("cs", ENGEL, str(near), "--null", "linear", "--format", "json",
                   "--out", str(out_near)) == 0
    assert run_cli("cs", ENGEL, str(far), "--null", "linear", "--format", "json",
                   "--out", str(out_far)) == 0
    assert json.loads(out_near.read_text())["contained"] is True
    payload_far = json.loads(out_far.read_text())
    assert payload_far["contained"] is False
    assert payload_far["binding_J"] is not None
    capsys.readouterr()
    assert run_cli("cs", ENGEL, str(far), "--null", "linear", "--format", "text") == 0
    assert capsys.readouterr().out == ("contained in the 95% confidence set: no\n"
                                       f"first violated candidate dimension: J = {payload_far['binding_J']}\n")


@pytest.mark.parametrize("alpha, level", [("0.05", "95%"), ("0.025", "97.5%"), ("0.001", "99.9%")])
def test_cmd_cs_text_names_the_confidence_level(tmp_path, capsys, alpha, level):
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"kind": "parametric", "model": "linear", "theta": [0.0, -0.2]}))
    assert run_cli("cs", ENGEL, str(cand), "--null", "linear", "--alpha", alpha) == 0
    assert capsys.readouterr().out.startswith(f"contained in the {level} confidence set: ")


@pytest.mark.parametrize("basis", ["cosine", "power"])
def test_builtin_shape_null_on_a_non_bspline_basis_exit_2(tmp_path, capsys, basis):
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"kind": "parametric", "model": "linear", "theta": [0.0, -0.2]}))
    message = f"the decreasing null's derivative constraints require a B-spline basis, got '{basis}'"
    assert run_cli("test", ENGEL, "--null", "decreasing", "--basis", basis) == 2
    assert message in capsys.readouterr().err
    assert run_cli("cs", ENGEL, str(cand), "--null", "decreasing", "--basis", basis) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("statistic, null, fields, flags, message", [
    ("structural", "decreasing", {"basis": "cosine"}, ["--basis", "cosine"],
     "the decreasing null's derivative constraints require a B-spline basis, got 'cosine'"),
    ("structural", "linear", {"grid": (1, 2)}, ["--grid", "1,2"],
     "explicit grid entry J=1 is below the basis minimum 3"),
    ("image-space", "decreasing", {}, None, "the image-space statistic needs a parametric null, got 'decreasing'"),
], ids=["shape-null-on-cosine", "grid-below-basis-minimum", "image-space-shape-null"])
def test_the_scan_contract_gives_one_message_from_every_entry_point(capsys, statistic, null, fields, flags, message):
    # one check decides which null and config a statistic takes, for every entry point that takes the pair
    data = load_csv_dataset(ENGEL)
    spec, config = NullSpec.from_name(null), RunConfig(**fields)
    if statistic == "structural":
        runs = [lambda: adaptive_test(data.y, data.x, data.w, spec, config),
                lambda: cs_contains(np.zeros_like(data.y), data.y, data.x, data.w, config, spec)]
    else:
        runs = [lambda: image_space_scan(data.y, data.x, data.w, spec, config)]
    runs.append(lambda: sim_module.ExperimentSpec(statistic=statistic, null=null, basis=config.basis,
                                                  grid_mode=config.grid, replications=1))
    for run in runs:
        with pytest.raises(InputError) as info:
            run()
        assert str(info.value) == message
    if flags is not None:  # the CLI's test runs the structural statistic
        assert run_cli("test", ENGEL, "--null", null, *flags) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"


_CLAMPED = ["87 points of x outside [0.1, 0.9] were clamped", "85 points of w outside [0.1, 0.9] were clamped"]
_STOPPED = "stability scan stopped at J=3: instrument gram B'B is numerically singular (dim 12)"


@pytest.fixture
def linear_candidate(tmp_path):
    """A parametric candidate file inside the linear null's confidence set on engel_style.csv."""
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"kind": "parametric", "model": "linear", "theta": [0.0, -0.2]}))
    return str(cand)


def test_cmd_test_and_cs_inside_the_support_write_nothing_to_stderr(linear_candidate, checkout_env):
    # every notice of a run is a line of its report; clamping points to a narrower support prints nothing either
    for support in ([], ["--support", "0.1,0.9"]):
        for argv in (["test", ENGEL], ["cs", ENGEL, linear_candidate, "--null", "linear"]):
            proc = subprocess.run([sys.executable, "-m", "npivtest.cli", *argv, *support, "--format", "json"],
                                  env=checkout_env, capture_output=True, text=True)
            assert (proc.returncode, proc.stderr) == (0, "")
            assert json.loads(proc.stdout)["warnings"] == (_CLAMPED if support else [])


def test_cmd_cs_reports_the_scans_notices(linear_candidate, capsys):
    # cs inverts the test, so it carries the notices test gives on the same flags: here the stability scan's stop
    flags = ["--null", "linear", "--basis", "power"]
    assert run_cli("test", ENGEL, *flags, "--format", "json") == 0
    assert json.loads(capsys.readouterr().out)["warnings"] == [_STOPPED]
    assert run_cli("cs", ENGEL, linear_candidate, *flags, "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    validate(payload, "containment.schema.json")
    assert payload["warnings"] == [_STOPPED]


@pytest.mark.parametrize("support, last", [
    ([], "contained in the 95% confidence set: yes"),
    (["--support", "0.1,0.9"], "warnings: " + "; ".join(_CLAMPED)),
], ids=["no-notices", "clamped"])
def test_cmd_cs_text_lists_the_warnings_as_test_does(linear_candidate, capsys, support, last):
    assert run_cli("cs", ENGEL, linear_candidate, "--null", "linear", *support) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == last
    assert ("warnings:" in out) == bool(support)


def test_cmd_cs_takes_json_or_text_only(linear_candidate, capsys):
    # cs writes one containment report, which has no per-candidate CSV table; test keeps all three formats
    with pytest.raises(SystemExit) as exc:
        run_cli("cs", ENGEL, linear_candidate, "--null", "linear", "--format", "csv")
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err
    assert run_cli("test", ENGEL, "--format", "csv") == 0


@pytest.mark.parametrize("command", ["test", "cs"])
def test_kfactor_flag_follows_the_run_config_rule(tmp_path, linear_candidate, capsys, command):
    # --kfactor takes what a config file's k_factor takes: any integer >= 2
    argv = [command, ENGEL, *([linear_candidate] if command == "cs" else []), "--null", "linear", "--format", "json"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k_factor": 3}))
    assert run_cli(*argv, "--config", str(cfg)) == 0
    by_file = json.loads(capsys.readouterr().out)
    assert run_cli(*argv, "--kfactor", "3") == 0
    assert json.loads(capsys.readouterr().out) == by_file and by_file["config"]["k_factor"] == 3
    assert run_cli(*argv, "--kfactor", "1") == 2
    assert capsys.readouterr().err == "input error: k_factor must be an integer >= 2, got 1\n"


@pytest.mark.parametrize("name, order", [("bspline2", 3), ("bspline3", 4)])
def test_cmd_cs_coeffs_candidate_uses_its_own_equispaced_basis(tmp_path, name, order):
    coeffs = [0.5, 0.3, 0.1, -0.1, -0.3, -0.5]  # decreasing, so inside the decreasing cone
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"kind": "coeffs", "basis": {"name": name}, "coefficients": coeffs}))
    out_path = tmp_path / "cs.json"
    assert run_cli("cs", ENGEL, str(cand), "--null", "decreasing", "--quantile-knots",
                   "--format", "json", "--out", str(out_path)) == 0
    payload = json.loads(out_path.read_text())
    data = load_csv_dataset(ENGEL)
    _, _, detail = cs_contains((np.array(coeffs), BasisSpec("bspline", 6, order)), data.y, data.x, data.w,
                               config=RunConfig.from_dict(payload["config"]), null=NullSpec.from_name("decreasing"),
                               mu=data.mu)
    assert payload["per_J"] == detail["per_J"]


def test_cmd_cs_malformed_candidate_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("cs", ENGEL, str(bad)) == 2
    bad.write_text(json.dumps({"kind": "teapot"}))
    assert run_cli("cs", ENGEL, str(bad)) == 2
    bad.write_text(json.dumps({"kind": "values", "values": [1.0, 2.0]}))
    assert run_cli("cs", ENGEL, str(bad)) == 2
    capsys.readouterr()


@pytest.mark.parametrize("doc, message", [
    ({"kind": "coeffs", "basis": {"name": "bspline2", "dim": "x"}, "coefficients": [1.0, 2.0]},
     "malformed: bspline basis dim must be an integer >= 3, got 'x'"),
    ({"kind": "coeffs", "basis": {"name": "bspline2", "support": 5}, "coefficients": [1.0, 2.0, 3.0]},
     "malformed: support must be a list of 2 values, got 5"),
    ({"kind": "parametric", "model": "linear", "theta": ["a", "b"]},
     "malformed: theta must be real numbers"),
    ({"kind": "parametric", "model": "linear", "theta": 5}, "malformed: theta must be 1-d, got shape ()"),
    ({"kind": "values", "values": "abc"}, "candidate fitted values must be real numbers"),
    ({"coefficients": [1.0]}, "unknown candidate kind None; expected one of ('coeffs', 'parametric', 'values')"),
    ({"kind": "coeffs", "coefficients": [1.0, 2.0]}, "coeffs candidate needs 'basis' and 'coefficients'"),
    ({"kind": "coeffs", "basis": {"name": "spline9"}, "coefficients": [1.0]},
     "unknown basis 'spline9'; expected one of ('bspline2', 'bspline3', 'cosine', 'power')"),
    ({"kind": "parametric", "model": "cubic", "theta": [1.0, 2.0]},
     "unknown candidate model 'cubic'; expected one of ('linear', 'quadratic')"),
    ({"kind": "parametric", "model": "linear", "theta": [1.0, 2.0, 3.0]}, "theta has 3 entries, design needs 2"),
], ids=["dim", "support", "theta", "0-d-theta", "values", "no-kind", "coeffs-no-basis", "unknown-basis", "model",
        "theta-length"])
def test_cmd_cs_malformed_candidate_fields_exit_2(tmp_path, capsys, doc, message):
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps(doc))
    assert run_cli("cs", ENGEL, str(cand)) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.rstrip("\n").endswith(message)


# -------------------------------------------------------------- cmd: simulate


def sim_spec_doc(**kw):
    doc = {
        "schema_version": 1,
        "design": "I",
        "mode": "size",
        "null": "decreasing",
        "h_family": "mono",
        "n_values": [200],
        "xi_values": [0.5],
        "c0_values": [0.1],
        "alphas": [0.05],
        "replications": 10,
        "k_factor": 2,
        "master_seed": 3,
    }
    doc.update(kw)
    return doc


def test_cmd_simulate_minimal(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(sim_spec_doc()))
    base = tmp_path / "out"
    code = run_cli("simulate", str(spec), "--out", str(base))
    capsys.readouterr()
    assert code == 0
    payload = json.loads((tmp_path / "out.json").read_text())
    payload["metadata"].setdefault("version", "")
    validate(payload, "summary.schema.json")
    assert payload["spec"]["replications"] == 10
    csv_text = (tmp_path / "out.csv").read_text()
    assert csv_text.splitlines()[0].startswith("n,xi,")
    if jsonschema is not None:
        schema = json.loads((SCHEMA_DIR / "experiment.schema.json").read_text())
        jsonschema.validate(sim_spec_doc(), schema)
        jsonschema.validate(payload["spec"], schema)  # the summary's spec reads back as a spec file


def test_cmd_simulate_reps_and_seed_flags_override_the_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(sim_spec_doc()))
    assert run_cli("simulate", str(spec), "--reps", "4", "--seed", "9", "--out", str(tmp_path / "flags")) == 0
    spec.write_text(json.dumps(sim_spec_doc(replications=4, master_seed=9)))
    assert run_cli("simulate", str(spec), "--out", str(tmp_path / "file")) == 0
    capsys.readouterr()
    flags, file = (json.loads((tmp_path / f"{name}.json").read_text()) for name in ("flags", "file"))
    assert (flags["spec"]["replications"], flags["spec"]["master_seed"]) == (4, 9)
    assert flags["spec"] == file["spec"] and flags["cells"] == file["cells"]


def test_cmd_simulate_parallel_identical_numbers(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(sim_spec_doc(replications=8)))
    run_cli("simulate", str(spec), "--out", str(tmp_path / "serial"))
    run_cli("simulate", str(spec), "--out", str(tmp_path / "parallel"), "--jobs", "2")
    capsys.readouterr()
    assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "parallel.csv").read_bytes()
    a = json.loads((tmp_path / "serial.json").read_text())
    b = json.loads((tmp_path / "parallel.json").read_text())
    a["metadata"].pop("timings"), b["metadata"].pop("timings")
    assert a == b


def test_cmd_simulate_schema_violation_exit_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(sim_spec_doc(mode="warp")))
    assert run_cli("simulate", str(spec)) == 2
    spec.write_text("[]")
    assert run_cli("simulate", str(spec)) == 2
    capsys.readouterr()


@pytest.mark.parametrize("fields, message", [
    ({"n_values": 5}, "n_values must be a non-empty list, got 5"),
    ({"replications": "10"}, "replications must be an integer >= 1, got '10'"),
    ({"n_values": ["a"], "replications": 2}, "n must be an integer >= 20, got 'a'"),
    ({"replications": 2, "n_values": [30.5]}, "n must be an integer >= 20, got 30.5"),
    ({"replications": True}, "replications must be an integer >= 1, got True"),
    ({"xi_values": [0.5, "0.7"]}, "xi must be a finite number, got '0.7'"),
    ({"alphas": [False]}, "alpha must be a finite number, got False"),
    ({"k_factor": 2.0}, "k_factor must be an integer >= 2, got 2.0"),
    ({"master_seed": None}, "master_seed must be an integer, got None"),
    ({"mode": "power"}, "power experiments use the sin/design2/quad families, not mono"),
    ({"basis": "foo"}, "unknown basis 'foo'"),
    ({"design": "IV"}, "unknown design 'IV'"),
    ({"k_factor": 1}, "k_factor must be an integer >= 2, got 1"),
    ({"xi_values": [1.5]}, "xi must be a number in (0, 1), got 1.5"),
    ({"n_values": [5]}, "n must be an integer >= 20, got 5"),
    ({"alphas": [0.05, 1.5]}, "alpha must be a number in (0, 1), got 1.5"),
    ({"null": "wiggly"}, "unknown null 'wiggly'"),
    ({"h_family": "zigzag"}, "unknown h family 'zigzag'"),
    ({"grid_mode": "weird"}, "unknown grid mode 'weird'; expected one of ('dyadic', 'knots')"),
    ({"grid_mode": [1, 2]}, "explicit grid entry J=1 is below the basis minimum 3"),
    ({"basis": "cosine"}, "the decreasing null's derivative constraints require a B-spline basis, got 'cosine'"),
    ({"statistic": "image-space"}, "the image-space statistic needs a parametric null, got 'decreasing'"),
], ids=["n_values-scalar", "replications-str", "n_values-str", "n_values-float", "replications-bool",
        "xi_values-str", "alphas-bool", "k_factor-float", "master_seed-null", "power-mono", "basis", "design",
        "k_factor-1", "xi-above-1", "n-below-20", "alpha-above-1", "null", "h_family", "grid_mode",
        "grid_mode-below-basis-minimum", "shape-null-on-cosine", "image-space-shape-null"])
def test_cmd_simulate_malformed_spec_exit_2(tmp_path, capsys, monkeypatch, fields, message):
    # the spec is rejected before a worker pool is built
    monkeypatch.setattr(sim_module, "ProcessPoolExecutor", None)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(sim_spec_doc(**fields)))
    assert run_cli("simulate", str(spec), "--jobs", "2", "--out", str(tmp_path / "out")) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


# ------------------------------------------------------------- cmd: reproduce


def test_cmd_reproduce_small(tmp_path, capsys):
    out = tmp_path / "t2.csv"
    code = run_cli("reproduce", "T2", "--reps", "3", "--seed", "1", "--format", "csv",
                   "--out", str(out))
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert "published" in lines[0]
    assert len(lines) > 1


def test_cmd_reproduce_text_out_matches_stdout(tmp_path, capsys):
    argv = ("reproduce", "T2", "--reps", "2", "--seed", "1", "--n", "500", "--format", "text")
    assert run_cli(*argv) == 0
    shown = capsys.readouterr().out
    out = tmp_path / "t2.txt"
    assert run_cli(*argv, "--out", str(out)) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == shown


def test_cmd_reproduce_filters_match_library(tmp_path, capsys):
    out = tmp_path / "t1.json"
    code = run_cli("reproduce", "T1", "--reps", "2", "--n", "500", "--xi", "0.5", "--c0", "1.0",
                   "--kfactor", "2", "--format", "json", "--out", str(out))
    capsys.readouterr()
    assert code == 0
    expected = reproduce("T1", 2, n_values=(500,), xi_values=(0.5,), c0_values=(1.0,), k_factors=(2,))
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 4
    assert rows == json.loads(dump_json(expected["rows"]))


@pytest.mark.parametrize("table, flags", [
    ("supp-D", ["--kfactor", "4"]),
    ("F1", ["--c0", "1.0"]),
    ("T2", ["--c0", "1.0"]),
    ("T1", ["--n", "123"]),
])
def test_cmd_reproduce_bad_filter_exit_2(capsys, table, flags):
    assert run_cli("reproduce", table, "--reps", "1", *flags) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_cmd_reproduce_repeated_filter_value_exit_2(capsys):
    # a repeated value would run each of its cells, and print each row, twice
    assert run_cli("reproduce", "T2", "--reps", "4", "--n", "500", "500", "--xi", "0.5", "--kfactor", "2") == 2
    assert "n_values has repeated values [500]" in capsys.readouterr().err
    assert run_cli("reproduce", "T2", "--reps", "2", "--n", "500", "--xi", "0.5", "--kfactor", "2", "2") == 2
    assert "k_factors has repeated values [2]" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cmd_reproduce_jobs_below_one_exit_2(capsys, jobs):
    assert run_cli("reproduce", "T1", "--reps", "4", "--n", "500", "--jobs", jobs) == 2
    assert "jobs must be an integer >= 1" in capsys.readouterr().err


def test_cmd_reproduce_unknown_table(capsys):
    with pytest.raises(SystemExit):
        run_cli("reproduce", "T7")
    capsys.readouterr()


# --------------------------------------------------------------- entry point


def test_console_entry_point_runs(checkout_env):
    proc = subprocess.run(
        [sys.executable, "-m", "npivtest.cli", "--version"],
        env=checkout_env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "npivtest" in proc.stdout
