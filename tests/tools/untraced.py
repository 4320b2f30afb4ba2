"""Untraced statements: run the tier-1 tests in this process under a line trace of the package and print every
statement of src/npivtest that no test ran and that LISTED does not name.

    python tests/tools/untraced.py [TREE]

TREE is a checkout of this repository (default: the one holding this script); its tests run on its own src, as
`PYTHONPATH=src python -m pytest -q --continue-on-collection-errors` run in TREE would. The trace is installed
before the package is first imported, so module-level and class-body statements count too. Code that runs only
in a forked pool worker or a child interpreter is not seen: the trace covers this process and its threads.

A statement is an executable statement of the syntax tree (a docstring is not one): a simple statement with all
of its lines, a compound one with its header lines (decorators, `def ...:`, `if ...:`, `try:`). It ran when a
line event fired on one of those lines. Each untraced statement is printed as `path:line: module function:
statement`; LISTED names the statements that no in-process test can run, keyed by (module, function, first
line of the statement), each with its reason; an entry whose statement ran or is gone is printed as stale. The
exit status is 1 when a test fails, an unlisted statement is untraced or an entry is stale, else 0. It needs
nothing beyond the test dependencies, and it is not a test module: tier-1 does not collect it.
"""

from __future__ import annotations

import ast
import os
import pathlib
import sys
import threading
import types

# (module, function, statement, reason): a statement that no in-process test can run
LISTED = (
    ("cli", "<module>", "sys.exit(main())",
     "runs only when the module is the interpreter's entry point, `python -m npivtest.cli`: "
     "tests/test_cli.py::test_console_entry_point_runs runs it in a child interpreter"),
)


def _statements(path: pathlib.Path):
    """(first line, function, statement text, lines) of every executable statement of the module at path, where
    lines are the statement's own lines: all of a simple statement's, a compound statement's header lines."""
    source = path.read_text()
    text = source.splitlines()
    code_lines = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        code_lines.update(line for *_, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))

    out = []

    def walk(body, function):
        for i, node in enumerate(body):
            if i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                continue  # a docstring
            compound = isinstance(getattr(node, "body", None), list)  # its header ends where its body starts
            start = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
            lines = set(range(start, node.body[0].lineno if compound else node.end_lineno + 1))
            if lines & code_lines:
                out.append((node.lineno, function, text[node.lineno - 1].strip(), lines))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(node.body, node.name if function == "<module>" else f"{function}.{node.name}")
            elif compound:
                for body in (node.body, getattr(node, "orelse", []), getattr(node, "finalbody", []),
                             *(handler.body for handler in getattr(node, "handlers", []))):
                    walk(body, function)

    walk(ast.parse(source).body, "<module>")
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    tree = pathlib.Path(args[0] if args else pathlib.Path(__file__).parents[2]).resolve()
    package = tree / "src" / "npivtest"
    prefix = str(package) + os.sep
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    os.chdir(tree)
    sys.path.insert(0, str(tree / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(tree / "src"), os.environ.get("PYTHONPATH"))))
    import pytest  # before the trace, so only the package's own frames are traced

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    loaded = sys.modules.get("npivtest")
    if loaded is None or not str(pathlib.Path(loaded.__file__).resolve()).startswith(prefix):
        print(f"untraced: the tests did not import the package from {package}")
        return 1

    missing, used = [], set()
    for path in sorted(package.glob("*.py")):
        module = "npivtest" if path.stem == "__init__" else path.stem
        ran = {line for name, line in hits if name == str(path)}
        for line, function, statement, lines in _statements(path):
            if lines & ran:
                continue
            listed = [entry for entry in LISTED if entry[:3] == (module, function, statement)]
            used.update(listed)
            if not listed:
                missing.append(f"{path.relative_to(tree)}:{line}: {module} {function}: {statement}")
    stale = [entry[:3] for entry in LISTED if entry not in used]
    for line in missing + [f"listed, but ran or is gone: {key}" for key in stale]:
        print(line)
    print(f"untraced: {len(missing)} unlisted statement(s) never ran, {len(stale)} stale list entries; "
          f"tests exited {int(status)}")
    return 1 if missing or stale or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
