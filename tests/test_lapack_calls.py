"""Every numpy.linalg routine the package calls maps a LAPACK failure to NumericalError."""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "npivtest"
# routines that cannot raise LinAlgError, and the exception class itself
UNGUARDED = {"norm", "LinAlgError"}


def _is_np_linalg(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "linalg"
            and isinstance(node.value, ast.Name) and node.value.id == "np")


def _catches_linalg_error(handler: ast.ExceptHandler) -> bool:
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(k, ast.Attribute) and k.attr == "LinAlgError" and _is_np_linalg(k.value) for k in kinds)


def unguarded_linalg_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of each np.linalg.<name> that is neither _lapack's first argument nor inside a
    try body that catches np.linalg.LinAlgError."""
    guarded: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lapack" and node.args:
            guarded.add(id(node.args[0]))
        if isinstance(node, ast.Try) and any(_catches_linalg_error(h) for h in node.handlers):
            guarded.update(id(inner) for stmt in node.body for inner in ast.walk(stmt))
    return [
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and _is_np_linalg(node.value)
        and node.attr not in UNGUARDED and id(node) not in guarded
    ]


def test_linalg_calls_are_mapped_to_numerical_errors():
    # a LinAlgError that escapes aborts a whole Monte Carlo experiment instead
    # of counting one failed replication
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.linalg")), path
            assert not (isinstance(node, ast.alias) and node.name.startswith("numpy.linalg")), path
        unguarded = unguarded_linalg_uses(tree)
        if unguarded:
            found[path.name] = unguarded
    assert found == {}


def linalg_names(tree: ast.AST) -> set[str]:
    """Every np.linalg.<name> a module names."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and _is_np_linalg(node.value)}


def test_candidates_are_factored_outside_adaptive():
    # npiv.fit_from_design and linalg factor every candidate; besides norms, the adaptive scans only
    # take the rank of active constraint rows (gamma_hat) and the image-space step's lambda_max
    assert linalg_names(ast.parse((SRC / "adaptive.py").read_text())) <= {"matrix_rank", "eigvalsh", *UNGUARDED}


def test_only_decide_turns_statistics_into_a_verdict():
    # the two tests, cs_contains and the Monte Carlo runs in sim take their critical values and
    # p-values from decide; eta_hat is the one critical-value formula, and decide its one caller
    callers: dict[str, set[str]] = {}
    for top in ast.parse((SRC / "adaptive.py").read_text()).body:
        for node in ast.walk(top):
            name = getattr(getattr(node, "func", None), "id", None)
            if isinstance(node, ast.Call) and name in ("eta_hat", "chisq_quantile", "chisq_sf"):
                callers.setdefault(name, set()).add(top.name)
    assert callers == {"eta_hat": {"decide"}, "chisq_quantile": {"eta_hat"}, "chisq_sf": {"decide"}}


def test_the_lint_sees_unguarded_calls():
    tree = ast.parse(
        "import numpy as np\n"
        "a = np.linalg.svd(m)\n"
        "b = _lapack(np.linalg.svd, m)\n"
        "c = _lapack(f, np.linalg.eigh(m))\n"
        "try:\n    d = np.linalg.cholesky(m)\nexcept np.linalg.LinAlgError:\n    pass\n"
        "try:\n    e = np.linalg.solve(m, v)\nexcept ValueError:\n    pass\n"
        "f = np.linalg.norm(v)\n"
    )
    assert unguarded_linalg_uses(tree) == [(2, "svd"), (4, "eigh"), (10, "solve")]
