"""Fuzz of `npivtest test` and `npivtest cs`, run in-process on small generated CSV files.

The inputs have ties and two-point x or w, constant y, n from 20 to 60 with explicit grids that put
K = k_factor * J near n, zero weights, and y magnitudes from 1e-200 to 1e200, for the whole sample or
entry by entry. Every input must end in
exit code 0, 2 or 3 with no exception escaping `main`, and a completed JSON report must hold finite D, v
and p-values, with a W that is finite or the defined inf of D > 0 over v = 0. A candidate the sample cannot
carry (a singular gram, K >= n or tied quantile knots) is never a numerical failure: it stops the stability
scan or is an input error.
"""

import contextlib
import io
import json
import math
import pathlib
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from npivtest.cli import main

_SHAPES = ("decreasing", "increasing", "convex", "concave")
_BASES = ("bspline2", "bspline3", "cosine", "power")
_DATA_FAILURES = ("numerically singular", "not strictly increasing", "need n > K")


def _shaped(v: np.ndarray, kind: str) -> np.ndarray:
    """v on [0, 1] as is, rounded to 5 tied values, or cut to two points."""
    if kind == "ties":
        return np.round(v * 4.0) / 4.0
    if kind == "two-point":
        return np.where(v > 0.5, 0.75, 0.25)
    return v


@st.composite
def _grids(draw, n: int, k_factor: int):
    """A candidate rule, or an explicit grid whose entries put K = k_factor * J within a few columns of n."""
    near = st.integers(min_value=max(1, (n - 6) // k_factor), max_value=(n + 2) // k_factor)
    entries = draw(st.one_of(st.none(), st.lists(near, min_size=1, max_size=3)))
    return draw(st.sampled_from(("dyadic", "knots"))) if entries is None else ",".join(map(str, entries))


@st.composite
def _cases(draw):
    n = draw(st.integers(min_value=20, max_value=60))
    k_factor = draw(st.sampled_from((2, 4)))
    null = draw(st.sampled_from((*_SHAPES, "linear", "quadratic")))
    return {
        "command": draw(st.sampled_from(("test", "cs"))),
        "n": n,
        "seed": draw(st.integers(min_value=0, max_value=2**32 - 1)),
        "x": draw(st.sampled_from(("spread", "ties", "two-point"))),
        "w": draw(st.sampled_from(("spread", "ties", "two-point"))),
        "y": draw(st.sampled_from(("noisy", "constant", "mixed"))),
        "scale": draw(st.integers(min_value=-200, max_value=200)),
        "zero_weights": draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n))),
        "null": null,
        # a shape null on a cosine or power basis is an input error before any data is read
        "basis": draw(st.sampled_from(_BASES[:2] if null in _SHAPES else _BASES)),
        "kfactor": k_factor,
        "grid": draw(_grids(n, k_factor)),
        "quantile_knots": draw(st.booleans()),
    }


def _write_inputs(case: dict, folder: pathlib.Path) -> list[str]:
    """The case's CSV (and, for cs, a values candidate) in folder; returns the positional arguments."""
    rng = np.random.default_rng(case["seed"])
    n = case["n"]
    latent = rng.uniform(size=n)
    x = _shaped(latent, case["x"])
    w = _shaped(np.clip(latent + 0.2 * rng.standard_normal(n), 0.0, 1.0), case["w"])
    scale, noisy = 10.0 ** case["scale"], 1.0 - x + 0.3 * rng.standard_normal(n)
    magnitudes = 10.0 ** rng.integers(-200, 201, n).astype(float)  # the mixed y's, entry by entry
    y = {"noisy": scale * noisy, "constant": np.full(n, scale), "mixed": magnitudes * noisy}[case["y"]]
    columns, header = [y, x, w], "y,x,w"
    if case["zero_weights"] is not None:
        mu = rng.uniform(0.5, 1.5, n)
        mu[rng.permutation(n)[:case["zero_weights"]]] = 0.0
        columns, header = [*columns, mu], header + ",mu"
    data = folder / "data.csv"
    np.savetxt(data, np.column_stack(columns), fmt="%.17g", delimiter=",", header=header, comments="")
    if case["command"] == "test":
        return [str(data)]
    candidate = folder / "candidate.json"
    candidate.write_text(json.dumps({"kind": "values", "values": (scale * (1.0 - x)).tolist()}))
    return [str(data), str(candidate)]


def _finite_or_inf_w(rec: dict) -> bool:
    """W is finite, or the defined inf of D > 0 over v = 0 (written as the string 'Infinity')."""
    return isinstance(rec["W"], float) or (rec["W"] == "Infinity" and rec["D"] > 0.0 and rec["v"] == 0.0)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_cases())
def test_cli_ends_in_a_defined_exit_code_with_finite_statistics(case):
    with tempfile.TemporaryDirectory() as folder:
        folder = pathlib.Path(folder)
        out = folder / "report.json"
        argv = [case["command"], *_write_inputs(case, folder), "--null", case["null"], "--basis", case["basis"],
                "--kfactor", str(case["kfactor"]), "--grid", case["grid"], "--format", "json", "--out", str(out),
                *(["--quantile-knots"] if case["quantile_knots"] else [])]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 2, 3), err.getvalue()
        if code != 0:
            assert "Traceback" not in err.getvalue()
            assert code == 2 or not any(text in err.getvalue() for text in _DATA_FAILURES), err.getvalue()
            return
        payload = json.loads(out.read_text())
    for rec in payload["per_J"]:
        d, v = rec["D_candidate" if case["command"] == "cs" else "D"], rec["v"]
        assert isinstance(d, float) and isinstance(v, float), rec
        assert math.isfinite(d) and math.isfinite(v), rec
        if case["command"] == "test":
            assert isinstance(rec["p_value"], float) and _finite_or_inf_w(rec), rec
    if case["command"] == "test":
        assert isinstance(payload["p_value"], float)
