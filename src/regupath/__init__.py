"""Variational regularization of ill-posed 1-D inverse problems.

Tikhonov-type functionals ||F(x) - data||_r^r + alpha * R(x) are minimized
along a geometric grid of regularization parameters, by projected
Gauss-Newton steps for an r = 2 misfit and by projected backtracking
gradient descent otherwise; the parameter is then chosen either by the
theta-argmin heuristic (no noise level needed) or by the discrepancy
principle, and the package ships the diagnostics that check the known
a-posteriori bounds on such selections.
"""

from .grid import (
    Grid,
    GridFunction,
    GridMismatchError,
    SingularSystemError,
    l2_inner,
    lr_norm,
    solve_tridiagonal,
)
from .models import (
    ForwardModel,
    GridMap,
    InadmissibleCoefficientError,
    NoiseOverflowError,
    NoiseSpec,
    elliptic_model,
    fredholm_model,
    make_noisy,
)
from .penalties import (
    Fidelity,
    IndexFunction,
    Penalty,
    QuadraticPenalty,
    ShiftedQuadraticPenalty,
    SmoothedTVPenalty,
    SubgradientError,
    bregman_distance,
    power_index,
)
from .rules import (
    DeltaLevelRow,
    RuleOutcome,
    TheoryReport,
    check_corollary_bounds,
    discrepancy_select,
    hanke_raus_select,
    run_delta_sequence,
)
from .solver import (
    AlphaPathRecord,
    DivergenceError,
    PathAborted,
    SolveOptions,
    compute_alpha_path,
    solve_tikhonov,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    ModelSpec,
    NoisePlan,
    PenaltySpec,
    ResultBundle,
    RuleSpec,
    SolverPlan,
    config_from_dict,
    config_from_json,
    example1_config,
    example2_piecewise_config,
    example2_smooth_config,
    preset,
    run_experiment,
    validate_config,
    write_bundle,
    write_theory_report,
)
from .plots import emit_plots

__all__ = [
    "AlphaPathRecord",
    "ConfigError",
    "DeltaLevelRow",
    "DivergenceError",
    "ExperimentConfig",
    "Fidelity",
    "ForwardModel",
    "Grid",
    "GridFunction",
    "GridMap",
    "GridMismatchError",
    "IndexFunction",
    "InadmissibleCoefficientError",
    "ModelSpec",
    "NoiseOverflowError",
    "NoisePlan",
    "NoiseSpec",
    "PathAborted",
    "Penalty",
    "PenaltySpec",
    "QuadraticPenalty",
    "ResultBundle",
    "RuleOutcome",
    "RuleSpec",
    "ShiftedQuadraticPenalty",
    "SingularSystemError",
    "SmoothedTVPenalty",
    "SolveOptions",
    "SolverPlan",
    "SubgradientError",
    "TheoryReport",
    "bregman_distance",
    "check_corollary_bounds",
    "compute_alpha_path",
    "config_from_dict",
    "config_from_json",
    "discrepancy_select",
    "elliptic_model",
    "emit_plots",
    "example1_config",
    "example2_piecewise_config",
    "example2_smooth_config",
    "fredholm_model",
    "hanke_raus_select",
    "l2_inner",
    "lr_norm",
    "make_noisy",
    "power_index",
    "preset",
    "run_delta_sequence",
    "run_experiment",
    "solve_tikhonov",
    "solve_tridiagonal",
    "validate_config",
    "write_bundle",
    "write_theory_report",
]
