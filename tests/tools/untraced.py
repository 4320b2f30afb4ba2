"""Untraced statements and one-way branches: run the tier-1 tests in this process under a line trace of the
package and print every statement of src/npivtest that no test ran and that LISTED does not name, and every
`if` or `while` whose test ran but only ever went one way and that ONE_WAY does not name.

    python tests/tools/untraced.py [TREE]

TREE is a checkout of this repository (default: the one holding this script); its tests run on its own src, as
`PYTHONPATH=src python -m pytest -q --continue-on-collection-errors` run in TREE would. The trace is installed
before the package is first imported, so module-level and class-body statements count too. Code that runs only
in a forked pool worker or a child interpreter is not seen: the trace covers this process and its threads.

A statement is an executable statement of the syntax tree (a docstring is not one): a simple statement with all
of its lines, a compound one with its header lines (decorators, `def ...:`, `if ...:`, `try:`). It ran when a
line event fired on one of those lines. Each untraced statement is printed as `path:line: module function:
statement`; LISTED names the statements that no in-process test can run, keyed by (module, function, first
line of the statement), each with its reason; an entry whose statement ran or is gone is printed as stale.

The same trace records each frame's line arcs: previous line -> line, and line -> return. A branch's test went
one way when every arc that leaves its header lines enters its body (always true), or none does (always
false). An exception raised in the header starts no arc. A header that never ran is already an untraced
statement; a `while True:` and a one-line `if` (its body on its header line, where no arc can enter it) are not
checked. Each one-way branch is printed as `path:line: module function: statement (always true|false)`;
ONE_WAY names, keyed like LISTED, the branches that no in-process test can take both ways. Line arcs cannot see
the branches inside one line: a conditional expression, `and`/`or`, a comprehension's `if` filter.

The exit status is 1 when a test fails, an unlisted statement is untraced, an unlisted branch goes one way or
an entry of either list is stale, else 0. It needs nothing beyond the test dependencies, and it is not a test
module: tier-1 does not collect it.
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
# (module, function, branch header, reason): a branch that no in-process test can take both ways
ONE_WAY = (
    ("cli", "<module>", 'if __name__ == "__main__":',
     "true only when the module is the interpreter's entry point, in a child interpreter (see LISTED)"),
    ("sim", "<module>", 'if hasattr(os, "register_at_fork"):  # a platform without fork has no inherited pool',
     "a platform guard: false only on a platform without fork, which the tests do not run on"),
)
RETURN = 0  # the arc target of a frame's return: no statement has line 0


def _statements(path: pathlib.Path):
    """(first line, function, statement text, lines, body) of every executable statement of the module at path,
    where lines are the statement's own lines: all of a simple statement's, a compound statement's header lines;
    body is the lines of a checked branch's body (see the module docstring), else None."""
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
            branch = isinstance(node, ast.If) or isinstance(node, ast.While) and not isinstance(node.test, ast.Constant)
            body = set(range(node.body[0].lineno, node.body[-1].end_lineno + 1)) \
                if branch and node.body[0].lineno > node.lineno else None
            if lines & code_lines:
                out.append((node.lineno, function, text[node.lineno - 1].strip(), lines, body))
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
    arcs: set[tuple[str, int, int]] = set()  # (file, previous line, line or RETURN) of one frame

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        filename, previous = frame.f_code.co_filename, None  # the frame's last line; None after an exception

        def local(frame, event, arg):
            nonlocal previous
            if event == "line":
                arcs.add((filename, previous, frame.f_lineno))
                previous = frame.f_lineno
            elif event == "return":
                arcs.add((filename, previous, RETURN))
            elif event == "exception":
                previous = None
            return local

        return local

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

    missing, one_way, used = [], [], set()
    for path in sorted(package.glob("*.py")):
        module = "npivtest" if path.stem == "__init__" else path.stem
        exits: dict[int, set[int]] = {}  # line -> the lines (or RETURN) that ran next in its frame
        for name, previous, line in arcs:
            if name == str(path):
                exits.setdefault(previous, set()).add(line)
        ran = set().union(*exits.values())
        for line, function, statement, lines, body in _statements(path):
            where = f"{path.relative_to(tree)}:{line}: {module} {function}: {statement}"
            if not lines & ran:
                listed = [entry for entry in LISTED if entry[:3] == (module, function, statement)]
                used.update(listed)
                if not listed:
                    missing.append(where)
                continue
            if body is None:
                continue
            taken = {target in body for header in lines for target in exits.get(header, ()) if target not in lines}
            if len(taken) == 1:
                listed = [entry for entry in ONE_WAY if entry[:3] == (module, function, statement)]
                used.update(listed)
                if not listed:
                    one_way.append(f"{where} (always {str(taken.pop()).lower()})")
    stale = [entry[:3] for entry in LISTED + ONE_WAY if entry not in used]
    for line in missing + one_way + [f"listed, but ran or is gone: {key}" for key in stale]:
        print(line)
    print(f"untraced: {len(missing)} unlisted statement(s) never ran, {len(one_way)} unlisted branch(es) went one "
          f"way, {len(stale)} stale list entries; tests exited {int(status)}")
    return 1 if missing or one_way or stale or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
