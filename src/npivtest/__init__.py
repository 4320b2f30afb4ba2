"""Adaptive hypothesis tests for shape and parametric restrictions on
structural functions in nonparametric IV models, with a Monte Carlo harness
and a CSV front end."""

from .adaptive import (
    CandidateGrid,
    CandidateRecord,
    NullSpec,
    RunConfig,
    TestReport,
    adaptive_test,
    compute_D,
    compute_vhat,
    cs_contains,
    eta_hat,
    gamma_hat,
    image_space_test,
)
from .basis import BasisSpec, ConstraintMatrix, deriv_constraints, eval_design, tensor_design, zeta
from .dgp import Dataset, DesignConfig, HSpec, generate, h_mono, h_sin
from .errors import InputError, NumericalError
from .npiv import NpivFit, RestrictedFit, cone_project, fit_from_design, fit_restricted_cone, fit_restricted_parametric
from .randdist import CovarianceSpec, RngStream, chisq_quantile, mvn_sample, std_normal_cdf
from .sim import ExperimentSpec, McSummary, reproduce, run_experiment

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "InputError",
    "NumericalError",
    "BasisSpec",
    "ConstraintMatrix",
    "deriv_constraints",
    "eval_design",
    "tensor_design",
    "zeta",
    "RngStream",
    "CovarianceSpec",
    "std_normal_cdf",
    "chisq_quantile",
    "mvn_sample",
    "NpivFit",
    "RestrictedFit",
    "fit_from_design",
    "fit_restricted_cone",
    "fit_restricted_parametric",
    "cone_project",
    "NullSpec",
    "RunConfig",
    "CandidateGrid",
    "CandidateRecord",
    "TestReport",
    "adaptive_test",
    "compute_D",
    "compute_vhat",
    "gamma_hat",
    "eta_hat",
    "cs_contains",
    "image_space_test",
    "HSpec",
    "DesignConfig",
    "Dataset",
    "generate",
    "h_mono",
    "h_sin",
    "ExperimentSpec",
    "McSummary",
    "run_experiment",
    "reproduce",
]
