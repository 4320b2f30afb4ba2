"""Every argument of every export goes through one rule per kind: an array, a scalar, an index set, a named
choice, a spec object or a list that the rule refuses is an InputError that names the argument.

The probe enumerates each function and spec dataclass (one that checks its fields in `__post_init__`) of
every module's `__all__`. For each parameter or field it passes object() in place of a valid value, and for
each named choice a wrong name too. EXEMPT lists the arguments that take anything, each with its reason.
"""

import dataclasses
import functools
import importlib
import inspect
import json
import pathlib
import pkgutil

import numpy as np
import pytest

import npivtest
from npivtest.adaptive import (_BASES, _GRID_MODES, _NULLS, _STATISTICS, NullSpec, RunConfig, adaptive_scan,
                               adaptive_test, cs_contains, decide)
from npivtest.basis import BasisSpec, deriv_constraints, eval_design, min_dim
from npivtest.dgp import _DESIGNS, _H_FAMILIES, DesignConfig, HSpec, generate
from npivtest.errors import InputError, NumericalError
from npivtest.linalg import check_gram
from npivtest.npiv import fit_from_design
from npivtest.randdist import CovarianceSpec, RngStream
from npivtest.sim import _MODES, ExperimentSpec, reproduce

MODULES = [f"npivtest.{m.name}" for m in pkgutil.iter_modules(npivtest.__path__)]
SCHEMAS = pathlib.Path(__file__).parent.parent / "src" / "npivtest" / "schemas"
WRONG = "no-such-name"

# (export, argument): why the probe passes it nothing
EXEMPT = {
    ("cli.main", "argv"): "the command line: argparse judges every word of it and exits 2 on a wrong one",
    ("cli.resolve_config", "args"): "an argparse namespace, read by getattr with a default for every flag, so any "
                                    "object is a namespace without flags and resolves to the default config",
}
# (export, argument): the word its message uses instead of the argument's name
ALIASES = {
    ("adaptive.image_space_test", "model"): "custom design",  # a model that is not a name is a custom design
    ("cli.render_report", "fmt"): "report format",
    ("npiv.cone_project", "m"): "constraint rows",  # m is a ConstraintMatrix or its rows
    ("randdist.CovarianceSpec", "matrix"): "covariance",
    ("sim.ExperimentSpec", "grid_mode"): "grid",  # RunConfig's grid rule judges it
}


@functools.cache
def _sample():
    data = generate(DesignConfig("I", 200, 0.5, HSpec("mono", c0=0.1), RngStream(0)))
    return data.y, data.x, data.w


@functools.cache
def _fit():
    y, x, w = _sample()
    spec = BasisSpec("bspline", 4, order=2)
    psi = eval_design(spec, x)
    fit = fit_from_design(psi, eval_design(BasisSpec("bspline", 8, order=2), w))
    return fit, deriv_constraints(spec, "decreasing"), fit.coefficients(y), psi, y


def _scan():
    grid, entries, warnings, n = adaptive_scan(*_sample(), NullSpec.from_name("decreasing"), RunConfig())
    return dict(grid=grid, entries=entries, n=n, warnings=warnings)


def _data(**more):
    return dict(zip("yxw", _sample()), **more)


# export -> its valid keyword arguments, one dict or several, built when a probe first needs them
CASES = {
    "adaptive.NullSpec": lambda: [dict(kind="shape", shape="decreasing", model=None, custom_rows=None,
                                       custom_design=None), dict(kind="parametric", model="linear")],
    "adaptive.RunConfig": lambda: dict(alpha=0.05, basis="bspline2", grid="dyadic", k_factor=4, support=(0.0, 1.0),
                                       knot_rule="equispaced"),
    "adaptive.compute_D": lambda: dict(scaled_map=np.ones((2, 5)), r=np.ones(5)),
    "adaptive.compute_vhat": lambda: dict(scaled_map=np.ones((2, 5)), u=np.ones(5)),
    "adaptive.gamma_hat": lambda: dict(m=_fit()[1], active_set=[0]),
    "adaptive.eta_hat": lambda: dict(alpha=0.05, grid_size=3, gamma=2, center=2),
    "adaptive.adaptive_test": lambda: _data(null=NullSpec.from_name("decreasing"), config=RunConfig(), mu=None),
    "adaptive.adaptive_scan": lambda: _data(null=NullSpec.from_name("decreasing"), config=RunConfig(), mu=None),
    "adaptive.decide": lambda: dict(_scan(), null=NullSpec.from_name("decreasing"), config=RunConfig(),
                                    statistic="structural"),
    "adaptive.cs_contains": lambda: _data(candidate=np.zeros(200), config=RunConfig(),
                                          null=NullSpec.from_name("linear"), mu=None),
    "adaptive.image_space_scan": lambda: _data(null=NullSpec.from_name("linear"), config=RunConfig()),
    "adaptive.image_space_test": lambda: _data(model="linear", config=RunConfig()),
    "basis.BasisSpec": lambda: dict(family="bspline", dim=6, order=3, support=(0.0, 1.0), knot_rule="quantile",
                                    knot_data=np.linspace(0, 1, 50)),
    "basis.ConstraintMatrix": lambda: dict(rows=np.eye(2), kind="custom"),
    "basis.eval_design": lambda: dict(spec=BasisSpec("bspline", 4), x=[0.5], deriv=0),
    "basis.deriv_constraints": lambda: dict(spec=BasisSpec("bspline", 4), kind="convex"),
    "basis.tensor_design": lambda: dict(specs=[BasisSpec("bspline", 4)], x=[0.5]),
    "basis.zeta": lambda: dict(spec=BasisSpec("bspline", 4), dim=4),
    "basis.min_dim": lambda: dict(spec=BasisSpec("bspline", 4)),
    "cli.main": dict,
    "cli.load_csv_dataset": lambda: dict(path="data.csv"),
    "cli.resolve_config": dict,
    "cli.render_report": lambda: dict(report=adaptive_test(*_sample(), NullSpec.from_name("decreasing")), fmt="json"),
    "dgp.HSpec": lambda: dict(family="sin", c0=1.0, c_a=0.5, c_b=0.5),
    "dgp.DesignConfig": lambda: dict(design="I", n=50, xi=0.5, h_spec=HSpec("mono"), rng=RngStream(0)),
    "dgp.h_mono": lambda: dict(c0=0.5, x=[0.5]),
    "dgp.h_sin": lambda: dict(c_a=0.5, c_b=0.5, x=[0.5]),
    "dgp.h_design2": lambda: dict(c_a=0.5, x=[0.5]),
    "dgp.h_quad": lambda: dict(c_a=0.5, x=[0.5]),
    "dgp.draw": lambda: dict(cfg=DesignConfig("I", 50, 0.5, HSpec("mono"), RngStream(0))),
    "dgp.generate": lambda: dict(cfg=DesignConfig("I", 50, 0.5, HSpec("mono"), RngStream(0))),
    "dgp.null_boundary": lambda: dict(h_family="sin", c_b=0.5),
    "linalg.pinv": lambda: dict(a=np.eye(2), rcond=1e-12),
    "linalg.orthonormal_range": lambda: dict(b=np.eye(2)),
    "linalg.frobenius_norm": lambda: dict(a=np.eye(2)),
    "linalg.default_rcond": lambda: dict(shape=(3, 2)),
    "linalg.check_gram": lambda: dict(lam_min=1.0, lam_max=1.0, dim=3, error=NumericalError, name="gram G"),
    "npiv.fit_from_design": lambda: dict(psi=_fit()[3], b=eval_design(BasisSpec("bspline", 8, order=2), _sample()[2]),
                                         mu=None),
    "npiv.fit_restricted_cone": lambda: dict(zip(("fit", "m", "beta", "psi", "y"), _fit())),
    "npiv.fit_restricted_parametric": lambda: dict(y=_sample()[0], x=_sample()[1], model="linear", q=_fit()[0].q,
                                                   r=_fit()[0].r),
    "npiv.cone_project": lambda: dict(v=np.ones(4), g=np.eye(4), m=_fit()[1]),
    "npiv.parametric_design": lambda: dict(x=[0.5, 0.7], model="linear"),
    "randdist.RngStream": lambda: dict(master_seed=0, stream_id=1),
    "randdist.CovarianceSpec": lambda: dict(matrix=np.eye(2)),
    "randdist.std_normal_cdf": lambda: dict(x=[0.5]),
    "randdist.chisq_quantile": lambda: dict(a=0.05, k=2),
    "randdist.chisq_sf": lambda: dict(x=1.0, k=2),
    "randdist.mvn_sample": lambda: dict(cov=CovarianceSpec(np.eye(2)), rng=RngStream(0), n=5),
    "sim.ExperimentSpec": lambda: dict(design="I", mode="size", statistic="structural", null="decreasing",
                                       h_family="mono", n_values=(50,), xi_values=(0.5,), c0_values=(1.0,),
                                       c_a_values=(0.0,), c_b_values=(0.0,), alphas=(0.05,), replications=2,
                                       k_factor=2, grid_mode="knots", basis="bspline2", master_seed=0),
    "sim.run_experiment": lambda: dict(spec=ExperimentSpec(n_values=(50,), replications=2), jobs=1),
    "sim.reproduce": lambda: dict(table_id="T1", replications=2, seed=0, jobs=1, n_values=[500], xi_values=[0.5],
                                  c0_values=[1.0], k_factors=[2]),
}
# export -> its named choices, each probed with a wrong name too
NAMED = {
    "adaptive.NullSpec": ("kind", "shape", "model"),
    "adaptive.RunConfig": ("basis", "grid", "knot_rule"),
    "adaptive.decide": ("statistic",),
    "adaptive.image_space_test": ("model",),
    "basis.BasisSpec": ("family", "knot_rule"),
    "basis.ConstraintMatrix": ("kind",),
    "basis.deriv_constraints": ("kind",),
    "cli.render_report": ("fmt",),
    "dgp.HSpec": ("family",),
    "dgp.DesignConfig": ("design",),
    "dgp.null_boundary": ("h_family",),
    "npiv.fit_restricted_parametric": ("model",),
    "npiv.parametric_design": ("model",),
    "sim.ExperimentSpec": ("design", "mode", "statistic", "null", "h_family", "grid_mode", "basis"),
    "sim.reproduce": ("table_id",),
}


def _cases(export: str) -> list[dict]:
    cases = CASES[export]()
    return cases if isinstance(cases, list) else [cases]


def _exports():
    """(qualified name, object) of every function and spec dataclass a module exports and defines."""
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if getattr(obj, "__module__", None) != module_name:
                continue
            if inspect.isfunction(obj) or dataclasses.is_dataclass(obj) and hasattr(obj, "__post_init__"):
                yield f"{module_name.removeprefix('npivtest.')}.{name}", obj


EXPORTS = dict(_exports())
PROBES = [(export, param, "object") for export, obj in EXPORTS.items() for param in inspect.signature(obj).parameters
          if (export, param) not in EXEMPT] + [(export, param, "name") for export, params in NAMED.items()
                                                for param in params]


def test_every_export_and_argument_is_probed():
    assert sorted(CASES) == sorted(EXPORTS)
    for export, obj in EXPORTS.items():
        given = {param for kwargs in _cases(export) for param in kwargs}
        missing = [p for p in inspect.signature(obj).parameters if p not in given and (export, p) not in EXEMPT]
        assert not missing, f"{export}: no valid value of {missing}"


@pytest.mark.parametrize("export, param, kind", PROBES, ids=[f"{e}-{p}-{k}" for e, p, k in PROBES])
def test_a_wrong_argument_is_an_input_error_naming_it(export, param, kind):
    # the first case that gives param a value, for a name probe a name
    kwargs = next(k for k in _cases(export) if param in k and (kind == "object" or isinstance(k[param], str)))
    with pytest.raises(InputError) as info:
        EXPORTS[export](**dict(kwargs, **{param: object() if kind == "object" else WRONG}))
    labels = (param, param.replace("_", " "), ALIASES.get((export, param), param))
    assert any(label.lower() in str(info.value).lower() for label in labels), str(info.value)


# each property an enum of the schemas constrains: the tuple the package's choice rule checks it against
CHOICES = {"design": _DESIGNS, "mode": _MODES, "statistic": _STATISTICS, "null": _NULLS, "h_family": _H_FAMILIES,
           "grid_mode": _GRID_MODES, "basis": _BASES}


def _enums(node, prop=None):
    """(property, enum) of every enum in a JSON schema, property the name of the property whose schema holds it."""
    if isinstance(node, list):
        for value in node:
            yield from _enums(value, prop)
    elif isinstance(node, dict):
        if "enum" in node:
            yield prop, tuple(node["enum"])
        for key, value in node.items():
            if key == "properties":
                for name, sub in value.items():
                    yield from _enums(sub, name)
            else:
                yield from _enums(value, prop)


@pytest.mark.parametrize("schema", ["experiment", "summary", "report"])
def test_schema_enums_are_the_tuples_the_package_checks(schema):
    enums = list(_enums(json.loads((SCHEMAS / f"{schema}.schema.json").read_text())))
    assert enums and all(enum == CHOICES[prop] for prop, enum in enums), enums
    if schema == "experiment":  # the spec's schema names every choice
        assert sorted(prop for prop, _ in enums) == sorted(CHOICES)


def test_decide_takes_one_entry_per_grid_candidate():
    null, config = NullSpec.from_name("decreasing"), RunConfig(grid=(3, 4))
    grid, entries, warnings, n = adaptive_scan(*_sample(), null, config)
    assert grid.size == 2
    with pytest.raises(InputError, match=r"^entries must be a list of 2 values, got "):
        decide(grid, entries[:1], n, null, config, warnings=warnings)


@pytest.mark.parametrize("n_values", [500, "500", []])
def test_reproduce_filters_are_lists(n_values):
    # "500" is no list of the cells 5, 0, 0
    with pytest.raises(InputError, match=r"^n_values must be a non-empty list, got "):
        reproduce("T1", replications=2, n_values=n_values)


def test_the_spec_objects_are_checked_before_the_sample_and_the_candidate():
    y, x, w = _sample()
    with pytest.raises(InputError, match=r"^null must be a NullSpec, got str$"):
        adaptive_test(np.full_like(y, np.nan), x, w, "decreasing")
    with pytest.raises(InputError, match=r"^config must be a RunConfig, got object$"):
        cs_contains(lambda t: 1 / 0, y, x, w, config=object())
    with pytest.raises(InputError, match=r"^candidate spec must be a BasisSpec, got str$"):
        cs_contains((np.zeros(3), "bspline"), y, x, w, null=NullSpec.from_name("decreasing"))


def test_min_dim_takes_anything_with_a_family_and_order():
    assert min_dim(RunConfig(basis="bspline3")) == min_dim(BasisSpec("bspline", 5, order=4)) == 4
    assert min_dim(RunConfig(basis="cosine")) == 1
    with pytest.raises(InputError, match=r"^unknown spec family None; expected one of "):
        min_dim(object())


def test_check_gram_raises_only_a_numerical_error_class():
    with pytest.raises(InputError, match=r"^error must be a NumericalError class, got ValueError$"):
        check_gram(0.0, 1.0, 3, ValueError, "gram G")
    with pytest.raises(NumericalError, match=r"^gram G is numerically singular \(dim 3\)$"):
        check_gram(0.0, 1.0, 3, NumericalError, "gram G")
