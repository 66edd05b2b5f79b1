import types

import regupath

# The public names, sorted, one a line, so adding or removing one is a one-line diff.
PUBLIC_NAMES = [
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
    "compute_alpha_path",
    "config_from_dict",
    "config_from_json",
    "discrepancy_select",
    "elliptic_model",
    "emit_plots",
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


def test_all_lists_exactly_the_public_names_of_the_package():
    # Every name in __all__ resolves, and every public name the package binds,
    # its submodules aside, is in __all__, so the two lists cannot drift apart.
    assert regupath.__all__ == PUBLIC_NAMES
    assert [name for name in regupath.__all__ if not hasattr(regupath, name)] == []
    bound = {name for name, value in vars(regupath).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(bound) == PUBLIC_NAMES
