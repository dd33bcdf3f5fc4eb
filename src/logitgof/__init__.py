"""Goodness-of-fit testing for logistic regression with exact Monte-Carlo
P-values.

The test statistics live in `statistics`, maximum-likelihood fitting in
`fitting`, the simulation engine in `montecarlo`, the small-n enumeration
oracle in `exact` and experiment orchestration in `experiment`.
"""

from .datamodel import (
    Dataset,
    FittedModel,
    ModelSpec,
    Ordering,
    OrderingPolicy,
)
from .datasets import FINNEY_DEPENDENT, finney
from .dataio import export_csv, inject_uniform_covariates, load_csv
from .errors import ConfigError, DataError, LogitgofError, NumericalError
from .exact import MAX_EXACT_N, ExactPValue, exact_pvalues
from .experiment import (
    DEFAULT_NUM_SIMULATIONS,
    ExperimentConfig,
    Report,
    build_plan,
    emit_report,
    load_config,
    report_from_json,
    run_experiment,
)
from .fitting import DEFAULT_FIT_CONFIG, FitConfig, design_matrix, fit, residuals
from .montecarlo import (
    PValueEstimate,
    SimulationPlan,
    draw_outcomes,
    estimate_pvalues,
    observed_statistics,
)
from .statistics import (
    StatisticKind,
    evaluate_batch,
    half_abs_sum,
    ks_statistic,
    kuiper_statistic,
    make_ordering,
    parse_statistics,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DEFAULT_FIT_CONFIG",
    "DEFAULT_NUM_SIMULATIONS",
    "DataError",
    "Dataset",
    "ExactPValue",
    "ExperimentConfig",
    "FINNEY_DEPENDENT",
    "FitConfig",
    "FittedModel",
    "LogitgofError",
    "MAX_EXACT_N",
    "ModelSpec",
    "NumericalError",
    "Ordering",
    "OrderingPolicy",
    "PValueEstimate",
    "Report",
    "SimulationPlan",
    "StatisticKind",
    "build_plan",
    "design_matrix",
    "draw_outcomes",
    "emit_report",
    "estimate_pvalues",
    "evaluate_batch",
    "exact_pvalues",
    "export_csv",
    "finney",
    "fit",
    "half_abs_sum",
    "inject_uniform_covariates",
    "ks_statistic",
    "kuiper_statistic",
    "load_config",
    "load_csv",
    "make_ordering",
    "observed_statistics",
    "parse_statistics",
    "report_from_json",
    "residuals",
    "run_experiment",
    "__version__",
]
