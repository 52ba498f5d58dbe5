"""Huber-loss penalized estimators robust to adversarial response corruption.

Vector regression with an l1 penalty, trace regression with a nuclear
norm penalty, and matrix completion with an additional entrywise
constraint, plus the simulation, tuning, and diagnostic machinery used
to study their error rates.
"""

from .problems import (
    DimensionMismatchError,
    InternalInvariantError,
    MaskCovariates,
    ProblemValidationError,
    RegressionProblem,
    SolverResult,
    TraceProblem,
    TuningParams,
    design_adjoint,
    design_apply,
)
from .penalties import (
    nuclear_norm,
    project_inf_ball,
    singular_value_threshold,
    soft_threshold,
)
from .solvers import (
    SolverConfig,
    solve_adversarial_lasso,
    solve_matrix_completion,
    solve_matrix_cs,
)
from .datagen import (
    ContaminationSpec,
    NoiseSpec,
    child_rng,
    gen_low_rank,
    gen_problem,
    gen_sparse_beta,
    spikiness,
)
from .diagnostics import (
    DiagnosticsReport,
    TheoremInputs,
    empirical_mre,
    empirical_re,
    error_metrics,
    tuning_completion,
    tuning_lasso,
    tuning_matrix_cs,
)
from .experiments import (
    DEFAULT_ORACLE_MULTIPLIERS,
    ExperimentRecord,
    SlopeFit,
    SweepSpec,
    fit_rate_slope,
    read_results,
    run_sweep,
    run_trial,
    write_results,
)
from .bundles import read_meta, read_problem_bundle, write_problem_bundle

__version__ = "0.1.0"

__all__ = [
    "ContaminationSpec",
    "DiagnosticsReport",
    "DimensionMismatchError",
    "ExperimentRecord",
    "InternalInvariantError",
    "MaskCovariates",
    "NoiseSpec",
    "ProblemValidationError",
    "RegressionProblem",
    "SlopeFit",
    "SolverConfig",
    "SolverResult",
    "DEFAULT_ORACLE_MULTIPLIERS",
    "SweepSpec",
    "TheoremInputs",
    "TraceProblem",
    "TuningParams",
    "child_rng",
    "design_adjoint",
    "design_apply",
    "empirical_mre",
    "empirical_re",
    "error_metrics",
    "fit_rate_slope",
    "gen_low_rank",
    "gen_problem",
    "gen_sparse_beta",
    "nuclear_norm",
    "project_inf_ball",
    "read_meta",
    "read_problem_bundle",
    "read_results",
    "run_sweep",
    "run_trial",
    "singular_value_threshold",
    "soft_threshold",
    "solve_adversarial_lasso",
    "solve_matrix_completion",
    "solve_matrix_cs",
    "spikiness",
    "tuning_completion",
    "tuning_lasso",
    "tuning_matrix_cs",
    "write_problem_bundle",
    "write_results",
]
