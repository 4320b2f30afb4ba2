"""Every public name a module exports resolves, and the benchmark's traced functions stay exported."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import npivtest
from npivtest.linalg import orthonormal_range

MODULES = ["npivtest"] + [f"npivtest.{m.name}" for m in pkgutil.iter_modules(npivtest.__path__)]
LAYERS_FILE = pathlib.Path(__file__).parent.parent / "perfbench" / "layers.py"


def traced_functions() -> dict:
    """perfbench/layers.py's LAYERS literal (module -> function names), read without importing it."""
    tree = ast.parse(LAYERS_FILE.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {LAYERS_FILE}")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing


# Deleted exports the benchmark's LAYERS still names; the tracer lists them as missing until LAYERS drops them.
# build_grid, compute_shat and sym_inv_sqrt went with their call layer (the fit computes s_hat); compute_vhat,
# tensor_design and fit_restricted_cone were second copies of _vhat_scaling, _tensor_product and _Cone.project.
DELETED = {"adaptive.build_grid", "adaptive.compute_shat", "linalg.sym_inv_sqrt", "adaptive.compute_vhat",
           "basis.tensor_design", "npiv.fit_restricted_cone"}


def test_traced_functions_are_exported():
    # the benchmark's tracer reports a function it cannot find as zero calls, so a
    # rename would silently empty its per-layer numbers
    layers = traced_functions()
    assert sum(len(fns) for fns in layers.values()) == 25
    for mod, fns in layers.items():
        module = importlib.import_module(f"npivtest.{mod}")
        for fn in fns:
            if f"{mod}.{fn}" in DELETED:
                assert not hasattr(module, fn), f"{mod}.{fn} is back; take it out of DELETED"
                continue
            assert fn in module.__all__, f"{mod}.{fn} is not exported"
            assert callable(getattr(module, fn)), f"{mod}.{fn} does not resolve"


def test_orthonormal_range_takes_b_first():
    # the benchmark counts linalg.orthonormal_range's cells from its first positional argument (or b=);
    # a renamed or reordered parameter would silently zero that counter
    assert next(iter(inspect.signature(orthonormal_range).parameters)) == "b"
