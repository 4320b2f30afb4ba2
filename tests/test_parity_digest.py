"""The parity digest: the package's outcomes of the digest slice of tests/tools/parity.py's inputs (the first 300
seed-0 inputs with n <= 2 000) against tests/data/parity_digest.json.

Grids, decisions, selected and reported J, warnings and errors (type and message) must match exactly; every
float within rel 1e-10, so that a BLAS that rounds differently does not fail the test. The digest is a golden:
a change that means to move an outcome rewrites it with `parity.py TREE --write-digest PATH` and lists every
moved input.
"""

import importlib.util
import json
import pathlib

HERE = pathlib.Path(__file__).parent
_SPEC = importlib.util.spec_from_file_location("parity", HERE / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)
_differences = parity._differences  # the golden rule, which parity.py gates on too


def test_float_rule_is_relative_and_everything_else_exact():
    assert _differences({"W": 1.0, "J": [3]}, {"W": 1.0 + 1e-12, "J": [3]}, "") == []
    assert _differences({"W": float("inf")}, {"W": float("inf")}, "") == []
    assert _differences(0.0, 1e-300, "D") == ["D: 0.0 -> 1e-300"]
    assert _differences(1.0, 1.0 + 1e-9, "W") == ["W: 1.0 -> 1.000000001"]
    assert _differences(3, 3.0, "J") == ["J: 3 -> 3.0"]
    assert _differences([True], [1], "x") == ["x[0]: True -> 1"]


def test_outcomes_match_the_digest():
    digest = json.loads((HERE / "data" / "parity_digest.json").read_text())
    cases = list(parity.digest_cases())
    assert [description["id"] for description, _ in cases] == [entry["id"] for entry in digest]
    changed = []
    for (description, data), entry in zip(cases, digest):
        outcome = parity.parsed(parity._outcome(description, data))
        changed += [f"input {entry['id']} ({description['scan']}){line}"
                    for line in _differences(entry["outcome"], outcome, "")]
    assert not changed, "\n".join(changed[:20])
