"""Experiment configuration, execution, and result persistence."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, astuple, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, get_args, get_origin, get_type_hints

import numpy as np

from .grid import Grid, GridFunction, is_integer, is_real, lr_norm
from .models import ForwardModel, NoiseOverflowError, NoiseSpec, elliptic_model, fredholm_model, make_noisy
from .penalties import (
    Fidelity,
    Penalty,
    QuadraticPenalty,
    ShiftedQuadraticPenalty,
    SmoothedTVPenalty,
    bregman_distance,
    power_index,
)
from .rules import (
    DeltaLevelRow,
    RuleOutcome,
    TheoryReport,
    discrepancy_select,
    hanke_raus_select,
    kappa_hat,
    run_delta_sequence,
)
from .solver import AlphaPathRecord, PathAborted, SolveOptions, alpha_grid_problems, compute_alpha_path


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the full list of problems."""

    def __init__(self, errors: List[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass
class ModelSpec:
    kind: str = "fredholm"
    n: int = 401


@dataclass
class PenaltySpec:
    kind: str = "quadratic"
    eps: float = 1e-4
    mu: float = 0.0


@dataclass
class RuleSpec:
    kind: str = "hanke_raus"
    tau: Optional[float] = None


def rule_tag(kind: str, tau: Optional[float]) -> str:
    """The rule part of a reconstruction's file name; distinct rules of a config have distinct tags."""
    if kind == "discrepancy":
        return f"discrepancy_tau{tau:g}"
    return kind


@dataclass
class NoisePlan:
    kind: str = "gaussian"
    level: Optional[float] = 0.01
    fraction: Optional[float] = None
    amplitude: Optional[float] = None
    seed: int = 0

    def to_spec(self) -> NoiseSpec:
        return NoiseSpec(**asdict(self))


@dataclass
class SolverPlan:
    max_iters: int = 5000
    grad_tol: float = 1e-8
    init: str = "zeros"

    def to_options(self, init: GridFunction) -> SolveOptions:
        return SolveOptions(**{**asdict(self), "init": init})


@dataclass
class ExperimentConfig:
    """One experiment; its JSON form has exactly these fields, sections nested."""

    experiment: str = "custom"
    model: ModelSpec = field(default_factory=ModelSpec)
    truth: str = "parabola_sine"
    fidelity_r: float = 2.0
    penalties: List[PenaltySpec] = field(default_factory=lambda: [PenaltySpec()])
    rules: List[RuleSpec] = field(default_factory=lambda: [RuleSpec()])
    alpha0: float = 1.0
    q: float = 0.9
    j_max: int = 60
    noise: NoisePlan = field(default_factory=NoisePlan)
    solver: SolverPlan = field(default_factory=SolverPlan)
    output_dir: str = "results"
    implementation_defaults: List[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


def _is_object(value, name: str, errors: List[str]) -> bool:
    if not isinstance(value, dict):
        errors.append(f"{name} must be a JSON object, got {value!r}")
    return isinstance(value, dict)


_TYPE_TESTS = {
    int: (is_integer, "an integer"),
    float: (is_real, "a finite number"),
    str: (lambda v: isinstance(v, str), "a string"),
}


def _parse_section(cls, data: dict, where: str, errors: List[str], mistyped: set):
    """Build ``cls`` from a JSON object, recursing into nested sections.

    Every value is checked against its field's annotation.  A key left out,
    or a section that is not an object, keeps the field's default; a scalar
    of the wrong type is kept and its full name added to ``mistyped``.
    """
    hints = get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        name = f"{where}.{key}" if where else key
        hint = hints.get(key)
        element = get_args(hint)[0] if get_origin(hint) is list else None
        optional = type(None) in get_args(hint)
        if hint is None:
            errors.append(f"{where + ': ' if where else ''}unknown key {key!r}")
        elif is_dataclass(hint):
            if _is_object(value, name, errors):
                kwargs[key] = _parse_section(hint, value, name, errors, mistyped)
        elif is_dataclass(element):
            if not (isinstance(value, list) and value):
                errors.append(f"{name} must be a nonempty list")
            elif all([_is_object(v, f"{name}[{i}]", errors) for i, v in enumerate(value)]):
                kwargs[key] = [_parse_section(element, v, f"{name}[{i}]", errors, mistyped)
                               for i, v in enumerate(value)]
        elif element is not None:
            kwargs[key] = value
            test, text = _TYPE_TESTS[element]
            if not (isinstance(value, list) and all(test(v) for v in value)):
                errors.append(f"{name} must be a list, each item {text}, got {value!r}")
        else:
            kwargs[key] = value
            test, text = _TYPE_TESTS[get_args(hint)[0] if optional else hint]
            if not (test(value) or (optional and value is None)):
                errors.append(f"{name} must be {text}{' or null' if optional else ''}, got {value!r}")
                mistyped.add(name)
    return cls(**kwargs)


def _range_problems(cfg: ExperimentConfig) -> Iterator[str]:
    """Every value out of range, led by its full field name.

    The checks of values that the library's types take come from those
    types: ``Fidelity``, ``SmoothedTVPenalty``, the alpha grid, ``NoiseSpec``
    and ``SolveOptions``.
    """

    def choice(name: str, value, table):
        # a tuple, so that a mistyped (unhashable) value is a problem, not a TypeError
        allowed = tuple(table)
        return [] if value in allowed else [f"{name} must be one of {allowed}, got {value!r}"]

    yield from choice("experiment", cfg.experiment, EXPERIMENTS)
    yield from choice("model.kind", cfg.model.kind, MODEL_KINDS)
    least_n = 5 if cfg.model.kind == "elliptic" else 3
    if not (is_integer(cfg.model.n) and cfg.model.n >= least_n):
        yield f"model.n must be an integer >= {least_n}, got {cfg.model.n!r}"
    yield from choice("truth", cfg.truth, TRUTHS)
    yield from ("fidelity_" + p for p in Fidelity.problems(cfg.fidelity_r))
    for i, pen in enumerate(cfg.penalties):
        yield from choice(f"penalties[{i}].kind", pen.kind, PENALTY_KINDS)
        if pen.kind == "smoothed_tv":
            yield from (f"penalties[{i}].{p}" for p in SmoothedTVPenalty.problems(pen.eps, pen.mu))
    tagged = {}
    for i, rule in enumerate(cfg.rules):
        yield from choice(f"rules[{i}].kind", rule.kind, RULE_KINDS)
        if rule.kind == "discrepancy" and not (is_real(rule.tau) and rule.tau > 0):
            yield f"rules[{i}].tau must be positive, got {rule.tau!r}"
        elif rule.kind in tuple(RULE_KINDS):
            tag = rule_tag(rule.kind, rule.tau)
            if tag in tagged:
                yield f"rules[{i}] writes the files of rules[{tagged[tag]}] (both are tagged {tag!r})"
            tagged.setdefault(tag, i)
    yield from alpha_grid_problems(cfg.alpha0, cfg.q, cfg.j_max)
    yield from ("noise." + p for p in NoiseSpec.problems(**asdict(cfg.noise)))
    tolerances = SolveOptions.problems(cfg.solver.max_iters, cfg.solver.grad_tol, 0.0)
    yield from ("solver." + p for p in tolerances)
    yield from choice("solver.init", cfg.solver.init, INIT_PROFILES)
    if not cfg.output_dir:
        yield "output_dir must be a nonempty string"


def _read_config(data) -> Tuple[ExperimentConfig, List[str]]:
    """The config a JSON value describes, and every problem with it.

    Type problems come first.  A range problem of a field whose type is
    wrong is left out, as the type problem already names that field.
    """
    errors: List[str] = []
    mistyped: set = set()
    if not _is_object(data, "configuration", errors):
        return ExperimentConfig(), errors
    cfg = _parse_section(ExperimentConfig, data, "", errors, mistyped)
    return cfg, errors + [e for e in _range_problems(cfg) if e.split(" ", 1)[0] not in mistyped]


def config_from_dict(data: dict) -> ExperimentConfig:
    """Parse a config mapping; raises ConfigError listing every problem."""
    cfg, errors = _read_config(data)
    if errors:
        raise ConfigError(errors)
    return cfg


def config_from_json(text: str) -> ExperimentConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"invalid JSON: {exc}"]) from exc
    return config_from_dict(data)


def validate_config(cfg: ExperimentConfig) -> List[str]:
    """Collect every problem in a config (empty list = valid), read from its JSON form."""
    return _read_config(asdict(cfg))[1]


# ---------------------------------------------------------------------------
# shipped choices: one table per config field, from each allowed name to its
# builder.  Profiles are functions of the grid points.  Entries look the model
# factories and the rules up in this module when called, so that replacing
# those names here (as the benchmark's tracing shims do) reaches every run.

def range_source_w(t: np.ndarray) -> np.ndarray:
    """The source element w of the ``range_source`` truth x = K w."""
    return 0.1 * (np.sin(np.pi * t) + 0.5 * np.sin(3 * np.pi * t))


TRUTHS = {
    "parabola_sine": lambda t: 4.0 * t * (1.0 - t) + np.sin(2.0 * np.pi * t),
    "smooth_mix": lambda t: np.sin(np.pi * t) + np.sin(4.0 * np.pi * t) + 2.0 * t**3 * (1.0 - t) + t,
    "three_steps": lambda t: np.select([t < 0.3, t < 0.6], [1.0, 6.0], 3.0),
    # x = K w with K the Fredholm operator on the nodal grid of t: a source condition
    "range_source": lambda t: fredholm_model(t.size).apply.on_values(range_source_w(t)),
}
INIT_PROFILES = {"zeros": np.zeros_like, "ones": np.ones_like}

MODEL_KINDS = {
    "fredholm": lambda spec: fredholm_model(spec.n),
    # -u'' + c u = f on n - 1 subintervals of (0, 1), u(0) = 1, u(1) = 6, f(t) = 100 exp(-10 (t - 1/2)^2)
    "elliptic": lambda spec: elliptic_model(
        spec.n - 1, 1.0, 6.0,
        Grid(spec.n - 2, convention="interior").from_callable(lambda t: 100.0 * np.exp(-10.0 * (t - 0.5) ** 2)),
    ),
}
PENALTY_KINDS = {
    "quadratic": lambda spec, x_grid: QuadraticPenalty(),
    # the reference is c0(t) = t
    "shifted_quadratic": lambda spec, x_grid: ShiftedQuadraticPenalty(x_grid.function(x_grid.points())),
    "smoothed_tv": lambda spec, x_grid: SmoothedTVPenalty(eps=spec.eps, mu=spec.mu),
}
RULE_KINDS = {
    "hanke_raus": lambda rule, path, delta: hanke_raus_select(path),
    "discrepancy": lambda rule, path, delta: discrepancy_select(path, rule.tau, delta),
}


def truth_function(name: str, grid: Grid) -> GridFunction:
    return grid.from_callable(TRUTHS[name])


def build_model(spec: ModelSpec) -> ForwardModel:
    return MODEL_KINDS[spec.kind](spec)


def build_penalty(spec: PenaltySpec, x_grid: Grid) -> Penalty:
    return PENALTY_KINDS[spec.kind](spec, x_grid)


# ---------------------------------------------------------------------------
# presets: the shipped studies, one config factory each

def example1_config(seed: int = 7571) -> ExperimentConfig:
    return ExperimentConfig(
        experiment="example1",
        model=ModelSpec(kind="fredholm", n=401),
        truth="parabola_sine",
        fidelity_r=1.01,
        penalties=[PenaltySpec(kind="quadratic")],
        rules=[
            RuleSpec(kind="hanke_raus"),
            RuleSpec(kind="discrepancy", tau=1.01),
            RuleSpec(kind="discrepancy", tau=1.615),
            RuleSpec(kind="discrepancy", tau=0.996),
        ],
        alpha0=1.0,
        q=0.95,
        j_max=120,
        noise=NoisePlan(kind="impulsive_gaussian", fraction=0.02, amplitude=1.0,
                        level=0.01, seed=seed),
        solver=SolverPlan(max_iters=2000, grad_tol=1e-7, init="zeros"),
        output_dir="results/example1",
        implementation_defaults=[
            "model.n",
            "noise.kind",
            "noise.fraction",
            "noise.amplitude",
            "noise.level",
            "noise.seed",
            "j_max",
            "solver",
        ],
    )


def example2_smooth_config(seed: int = 1009) -> ExperimentConfig:
    return ExperimentConfig(
        experiment="example2_smooth",
        model=ModelSpec(kind="elliptic", n=401),
        truth="smooth_mix",
        fidelity_r=2.0,
        penalties=[PenaltySpec(kind="quadratic"), PenaltySpec(kind="shifted_quadratic")],
        rules=[RuleSpec(kind="hanke_raus")],
        alpha0=0.005,
        q=0.8,
        j_max=38,
        noise=NoisePlan(kind="gaussian", level=0.0025, seed=seed),
        solver=SolverPlan(max_iters=3000, grad_tol=1e-7, init="ones"),
        output_dir="results/example2_smooth",
        implementation_defaults=["noise.seed", "j_max", "solver"],
    )


def example2_piecewise_config(seed: int = 2203) -> ExperimentConfig:
    return ExperimentConfig(
        experiment="example2_piecewise",
        model=ModelSpec(kind="elliptic", n=401),
        truth="three_steps",
        fidelity_r=2.0,
        penalties=[PenaltySpec(kind="smoothed_tv", eps=0.5, mu=0.001)],
        rules=[RuleSpec(kind="hanke_raus")],
        alpha0=0.001,
        q=0.8,
        j_max=42,
        noise=NoisePlan(kind="gaussian", level=0.001, seed=seed),
        solver=SolverPlan(max_iters=6000, grad_tol=1e-7, init="ones"),
        output_dir="results/example2_piecewise",
        implementation_defaults=["truth", "noise.seed", "j_max", "solver", "penalties[0].eps"],
    )


def theory_study_config(seed: int = 7) -> ExperimentConfig:
    """The shrinking-noise study; ``regupath theory`` sets its noise levels."""
    return ExperimentConfig(
        experiment="theory_study",
        model=ModelSpec(kind="fredholm", n=101),
        truth="range_source",
        fidelity_r=2.0,
        penalties=[PenaltySpec(kind="quadratic")],
        rules=[RuleSpec(kind="hanke_raus")],
        alpha0=1.0,
        q=0.8,
        j_max=35,
        noise=NoisePlan(kind="gaussian", level=0.01, seed=seed),
        solver=SolverPlan(max_iters=3000, grad_tol=1e-9, init="zeros"),
        output_dir="results/theory",
        implementation_defaults=["model.n", "truth", "noise.seed", "j_max", "solver"],
    )


PRESETS = {
    "example1": example1_config,
    "example2_smooth": example2_smooth_config,
    "example2_piecewise": example2_piecewise_config,
    "theory_study": theory_study_config,
}
EXPERIMENTS = (*PRESETS, "custom")


def preset(name: str, seed: Optional[int] = None) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError([f"unknown preset {name!r}, known presets: {', '.join(PRESETS)}"])
    return PRESETS[name]() if seed is None else PRESETS[name](seed=seed)


# ---------------------------------------------------------------------------
# execution

@dataclass
class PenaltyResult:
    spec: PenaltySpec
    tag: str
    penalty: Penalty
    path: List[AlphaPathRecord]
    outcomes: List[RuleOutcome]
    kappa_hat: float


@dataclass
class ResultBundle:
    config: ExperimentConfig
    truth: GridFunction
    exact_data: GridFunction
    noisy_data: GridFunction
    delta: float
    results: List[PenaltyResult]


def penalty_tags(specs: List[PenaltySpec]) -> List[str]:
    tags = []
    for spec in specs:
        tag = spec.kind
        if sum(1 for s in specs if s.kind == spec.kind) > 1:
            tag = f"{spec.kind}_{sum(1 for t in tags if t.startswith(spec.kind))}"
        tags.append(tag)
    return tags


def _setup(config: ExperimentConfig):
    """Validate a config and build its model, truth and solver initial guess."""
    errors = validate_config(config)
    if errors:
        raise ConfigError(errors)
    model = build_model(config.model)
    truth = truth_function(config.truth, model.x_grid)
    return model, truth, model.x_grid.from_callable(INIT_PROFILES[config.solver.init])


def run_theory_study(config: ExperimentConfig, deltas) -> TheoryReport:
    """Shrinking-noise study of a config's model and first penalty.

    The noise direction comes from ``noise.seed``; see ``run_delta_sequence``.
    Noise levels whose data leave the float range are a ConfigError.  The
    Bregman error's bound ratio needs the index function of a variational
    source condition, known here for one case: the Fredholm model, the
    ``range_source`` truth x = K w and the quadratic penalty, whose
    subgradient 2x = K*(2w) gives phi(t) = 2 ||w|| t.  Every other study
    reports the ratio as NaN.
    """
    model, truth, init = _setup(config)
    pen = build_penalty(config.penalties[0], model.x_grid)
    index_fn = None
    if (config.model.kind, config.truth, config.penalties[0].kind) == ("fredholm", "range_source", "quadratic"):
        index_fn = power_index(2.0 * lr_norm(model.x_grid.from_callable(range_source_w), 2.0), 1.0)
    try:
        return run_delta_sequence(model, pen, config.fidelity_r, config.alpha0, config.q, config.j_max,
                                  deltas, config.noise.seed, truth, opts=config.solver.to_options(init),
                                  index_fn=index_fn)
    except NoiseOverflowError as exc:
        raise ConfigError([f"deltas: {exc}"]) from exc


def run_experiment(
    config: ExperimentConfig, apply_rules: bool = True, max_workers: int = 1
) -> ResultBundle:
    """Build model + truth + noise, solve the alpha path(s), apply the rules.

    The penalties' paths are solved one after another.  If one aborts, the
    raised PathAborted names its penalty and carries, as ``partial``, the
    ResultBundle of the penalties finished before it (None if there are none).
    ``max_workers`` must be 1; it stays only because ``bench/run.py`` passes
    it, and goes with that argument in the benchmark-only change that
    re-baselines the benchmark (ROADMAP).
    """
    if max_workers != 1:
        raise ValueError(f"penalties are solved one after another; max_workers must be 1, got {max_workers!r}")
    model, truth, init = _setup(config)
    exact = model.apply(truth)
    try:
        noisy, delta = make_noisy(exact, config.noise.to_spec(), norm_exponent=config.fidelity_r)
    except NoiseOverflowError as exc:
        raise ConfigError([f"noise: {exc}"]) from exc
    fid = Fidelity(config.fidelity_r, noisy)
    rules = config.rules if apply_rules else []
    results: List[PenaltyResult] = []
    for spec, tag in zip(config.penalties, penalty_tags(config.penalties)):
        pen = build_penalty(spec, model.x_grid)
        try:
            path = compute_alpha_path(
                model, fid, pen, config.alpha0, config.q, config.j_max,
                config.solver.to_options(init),
            )
        except PathAborted as exc:
            partial = ResultBundle(config, truth, exact, noisy, delta, results) if results else None
            raise PathAborted(f"{exc} (penalty {tag})", exc.records, partial) from exc
        outcomes = [RULE_KINDS[rule.kind](rule, path, delta) for rule in rules]
        kappa = kappa_hat(path, delta) if delta > 0 else float("nan")
        results.append(PenaltyResult(spec=spec, tag=tag, penalty=pen, path=path, outcomes=outcomes, kappa_hat=kappa))

    return ResultBundle(
        config=config,
        truth=truth,
        exact_data=exact,
        noisy_data=noisy,
        delta=delta,
        results=results,
    )


# ---------------------------------------------------------------------------
# persistence: RFC-4180 CSVs, UTF-8, LF line endings, 17 significant digits

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_rows(path: Path, header: List[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


# The columns of a path CSV that need no truth, and one record's values for them.
PATH_COLUMNS = ["j", "alpha", "residual", "penalty", "theta", "objective", "iters", "converged"]


def _path_row(j: int, rec: AlphaPathRecord) -> tuple:
    return (j, rec.alpha, rec.residual, rec.penalty, rec.theta, rec.objective, rec.iters, rec.converged)


def write_path(records: List[AlphaPathRecord], path) -> Path:
    """Write records as the truth-free path columns, one row per record in path order."""
    path = Path(path)
    _write_rows(path, PATH_COLUMNS, (_path_row(j, rec) for j, rec in enumerate(records)))
    return path


def l1_error(x: GridFunction, truth: GridFunction) -> float:
    x._check_same_grid(truth)
    return float(np.sum(x.grid.weights() * np.abs(x.values - truth.values)))


def tv_roughness(x: GridFunction) -> float:
    """Discrete total variation sum |x_{i+1} - x_i| of a reconstruction."""
    return float(np.sum(np.abs(np.diff(x.values))))


def write_bundle(bundle: ResultBundle, out_dir) -> List[Path]:
    """Write the bundle as CSVs + config echo; returns the created paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    created: List[Path] = []

    cfg_path = out / "config.json"
    cfg_path.write_text(bundle.config.to_json(), encoding="utf-8")
    created.append(cfg_path)

    data_path = out / "data.csv"
    _write_rows(
        data_path,
        ["t", "exact", "noisy"],
        zip(bundle.exact_data.points(), bundle.exact_data.values, bundle.noisy_data.values),
    )
    created.append(data_path)

    outcome_rows = []
    for result in bundle.results:
        xi = result.penalty.subgradient(bundle.truth)
        path_rows = []
        for j, rec in enumerate(result.path):
            breg = bregman_distance(result.penalty, xi, rec.x, bundle.truth)
            l2e = lr_norm(rec.x - bundle.truth, 2.0)
            path_rows.append((*_path_row(j, rec), breg, l2e))
        path_path = out / f"path_{result.tag}.csv"
        _write_rows(path_path, PATH_COLUMNS + ["bregman_to_truth", "l2_error_to_truth"], path_rows)
        created.append(path_path)

        for outcome in result.outcomes:
            x_star = outcome.record.x
            outcome_rows.append(
                (
                    result.tag,
                    outcome.rule,
                    "" if outcome.tau is None else _fmt(outcome.tau),
                    outcome.alpha_star,
                    outcome.delta_star,
                    bundle.delta,
                    result.kappa_hat,
                    lr_norm(x_star - bundle.truth, 2.0),
                    l1_error(x_star, bundle.truth),
                    bregman_distance(result.penalty, xi, x_star, bundle.truth),
                    tv_roughness(x_star),
                    ";".join(outcome.flags),
                    outcome.record.converged,
                )
            )
            recon_path = out / f"recon_{result.tag}_{rule_tag(outcome.rule, outcome.tau)}.csv"
            _write_rows(
                recon_path,
                ["t", "truth", "estimate"],
                zip(bundle.truth.points(), bundle.truth.values, x_star.values),
            )
            created.append(recon_path)

    if outcome_rows:
        outcomes_path = out / "outcomes.csv"
        _write_rows(
            outcomes_path,
            ["penalty", "rule", "tau", "alpha_star", "delta_star", "delta", "kappa_hat",
             "l2_error", "l1_error", "bregman", "tv_roughness", "flags", "selected_converged"],
            outcome_rows,
        )
        created.append(outcomes_path)
    return created


def write_theory_report(report: TheoryReport, path) -> Path:
    """One CSV row per noise level, then a key/value summary block."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([f.name for f in fields(DeltaLevelRow)])
        for row in report.convergence_table:
            writer.writerow([_fmt(value) for value in astuple(row)])
        writer.writerow([])
        writer.writerow(["key", "value"])
        for key in (
            "kappa_estimate", "delta", "delta_star", "alpha_star", "lower_bound_alpha", "bound_ratio",
            "precondition_holds", "delta_bound_ok", "alpha_bound_ok",
        ):
            writer.writerow([key, _fmt(getattr(report, key))])
        writer.writerow(["flags", ";".join(report.flags)])
    return path
