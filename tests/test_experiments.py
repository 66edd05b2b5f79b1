import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import regupath
from regupath import (
    ConfigError,
    DeltaLevelRow,
    ExperimentConfig,
    Fidelity,
    Grid,
    ModelSpec,
    NoisePlan,
    PenaltySpec,
    QuadraticPenalty,
    RuleSpec,
    SolverPlan,
    TheoryReport,
    config_from_dict,
    config_from_json,
    elliptic_model,
    emit_plots,
    lr_norm,
    power_index,
    preset,
    run_experiment,
    validate_config,
    write_bundle,
    write_theory_report,
)
from regupath.experiments import (PRESETS, build_model, build_penalty, example1_config, example2_piecewise_config,
                                  example2_smooth_config, penalty_tags, run_theory_study, truth_function)
from regupath.models import gaussian_draw
from regupath.plots import _Axis, line_chart
from regupath.rules import hanke_raus_select, kappa_hat

from oracles import check_corollary_bounds, fredholm_apply_matrix, laplacian_eigenvalues, spectral_tikhonov


def tiny_config(**overrides):
    cfg = ExperimentConfig(
        experiment="custom",
        model=ModelSpec(kind="fredholm", n=41),
        truth="parabola_sine",
        fidelity_r=2.0,
        penalties=[PenaltySpec(kind="quadratic")],
        rules=[RuleSpec(kind="hanke_raus"), RuleSpec(kind="discrepancy", tau=1.2)],
        alpha0=0.5,
        q=0.7,
        j_max=6,
        noise=NoisePlan(kind="gaussian", level=0.02, seed=5),
        solver=SolverPlan(max_iters=800, grad_tol=1e-8, init="zeros"),
        output_dir="results/tiny",
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


# ---------------------------------------------------------------------------
# config parsing and validation

def test_config_roundtrip_idempotent():
    text = example1_config().to_json()
    once = config_from_json(text).to_json()
    twice = config_from_json(once).to_json()
    assert once == twice == text


def test_config_from_dict_fills_defaults():
    cfg = config_from_dict({"experiment": "custom", "noise": {"kind": "gaussian", "level": 0.1}})
    assert cfg.model.kind == "fredholm"
    assert cfg.penalties[0].kind == "quadratic"


def test_partial_noise_section_keeps_the_default_level():
    cfg = config_from_dict({"noise": {"seed": 3}})
    assert cfg.noise == dataclasses.replace(ExperimentConfig().noise, seed=3)
    assert cfg.noise.level == 0.01


def test_validation_collects_every_error():
    bad = {
        "experiment": "nope",
        "fidelity_r": 0.5,
        "alpha0": -1.0,
        "q": 1.5,
        "j_max": -2,
        "truth": "unknown",
        "penalties": [{"kind": "mystery"}],
        "rules": [{"kind": "discrepancy"}],
        "noise": {"kind": "gaussian", "level": -3.0},
    }
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict(bad)
    messages = "\n".join(excinfo.value.errors)
    for fragment in ("experiment", "fidelity_r", "alpha0", "q must", "j_max",
                     "truth", "penalties[0].kind", "rules[0].tau", "noise.level"):
        assert fragment in messages
    assert len(excinfo.value.errors) >= 9


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict({"experiment": "custom", "bogus": 1, "model": {"kind": "fredholm", "oops": 2}})
    text = "\n".join(excinfo.value.errors)
    assert "bogus" in text and "oops" in text


def test_invalid_json_is_a_config_error():
    with pytest.raises(ConfigError):
        config_from_json("{not json")


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"model": 5}', "model"),
        ('{"noise": []}', "noise"),
        ('{"penalties": [3]}', "penalties[0]"),
        ('{"implementation_defaults": 5}', "implementation_defaults"),
        ('{"implementation_defaults": "solver"}', "implementation_defaults"),
        ('{"noise": {"kind": "gaussian", "level": Infinity}}', "noise.level"),
        ('{"alpha0": Infinity}', "alpha0"),
        ('{"fidelity_r": NaN}', "fidelity_r"),
        ('{"solver": {"max_iters": true}}', "solver.max_iters"),
        ('{"j_max": false}', "j_max"),
        ('{"model": {"kind": "elliptic", "n": "high"}}', "model.n"),
        ('{"model": {"kind": "elliptic", "n": 4}}', "model.n"),
        # keys of fixed facts that are no longer config fields
        ('{"model": {"kind": "elliptic", "subintervals": 400}}', "model: unknown key 'subintervals'"),
        ('{"model": {"kind": "elliptic", "g0": 1.0}}', "model: unknown key 'g0'"),
        ('{"model": {"kind": "elliptic", "g1": 6.0}}', "model: unknown key 'g1'"),
        ('{"model": {"kind": "elliptic", "source": "gaussian_bump"}}', "model: unknown key 'source'"),
        ('{"penalties": [{"kind": "shifted_quadratic", "c0": "linear_t"}]}', "penalties[0]: unknown key 'c0'"),
        ('{"solver": {"grad_tol_abs": 1e-6}}', "solver: unknown key 'grad_tol_abs'"),
    ],
)
def test_malformed_input_is_a_config_error(text, field):
    # one problem, and its message starts with ``field`` followed by a space or the end
    with pytest.raises(ConfigError) as excinfo:
        config_from_json(text)
    errors = excinfo.value.errors
    assert len(errors) == 1 and (errors[0] + " ").startswith(field + " "), errors


_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


_TOP_KEYS = ["model", "noise", "solver", "penalties", "rules", "alpha0", "q", "j_max",
             "implementation_defaults", "bogus"]


def _paths(node, prefix=()):
    """Every key/index path into a JSON value, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated_presets(draw):
    name = draw(st.sampled_from(sorted(PRESETS)))
    data = json.loads(preset(name).to_json())
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(data))))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_JSON_VALUES)
    return data


def _accepted_or_config_error(data):
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    assert validate_config(cfg) == []
    text = cfg.to_json()
    assert config_from_json(text).to_json() == text


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES | st.dictionaries(st.sampled_from(_TOP_KEYS), _JSON_VALUES))
def test_config_from_dict_fuzz_arbitrary_json(data):
    _accepted_or_config_error(data)


@settings(max_examples=300, deadline=None)
@given(_mutated_presets())
def test_config_from_dict_fuzz_mutated_presets(data):
    _accepted_or_config_error(data)


def test_presets_expose_published_constants():
    ex1 = example1_config()
    assert ex1.fidelity_r == 1.01
    assert ex1.alpha0 == 1.0 and ex1.q == 0.95
    assert ex1.penalties[0].kind == "quadratic"
    assert [r.tau for r in ex1.rules] == [None, 1.01, 1.615, 0.996]
    assert ex1.noise.kind == "impulsive_gaussian"
    assert ex1.noise.fraction == 0.02 and ex1.noise.amplitude == 1.0

    ex2 = example2_smooth_config()
    assert ex2.model.kind == "elliptic" and ex2.model.n == 401
    # -u'' + c u = f with u(0) = 1, u(1) = 6 and the Gaussian bump source on 400 subintervals
    model = build_model(ex2.model)
    u_grid = Grid(399, convention="interior")
    published = elliptic_model(400, 1.0, 6.0, u_grid.from_callable(lambda t: 100.0 * np.exp(-10.0 * (t - 0.5) ** 2)))
    c = model.x_grid.from_callable(lambda t: 1.0 + np.sin(np.pi * t))
    w = u_grid.from_callable(np.cos)
    np.testing.assert_array_equal(model.apply(c).values, published.apply(c).values)
    np.testing.assert_array_equal(model.adjoint_derivative(c, w).values, published.adjoint_derivative(c, w).values)
    assert ex2.fidelity_r == 2.0
    assert ex2.alpha0 == 0.005 and ex2.q == 0.8
    assert ex2.noise.level == 0.0025
    kinds = [p.kind for p in ex2.penalties]
    assert kinds == ["quadratic", "shifted_quadratic"]
    # the shifted penalty's reference is c0(t) = t
    np.testing.assert_array_equal(build_penalty(ex2.penalties[1], model.x_grid).c0.values, model.x_grid.points())

    ex3 = example2_piecewise_config()
    assert ex3.alpha0 == 0.001 and ex3.q == 0.8
    assert ex3.noise.level == 0.001
    assert ex3.penalties[0].kind == "smoothed_tv"
    assert ex3.penalties[0].mu == 0.001


def test_presets_validate_clean():
    for name in PRESETS:
        assert validate_config(preset(name)) == []
        # a seed replaces noise.seed and nothing else
        reseeded = preset(name, seed=3)
        assert reseeded.noise.seed == 3
        reseeded.noise.seed = preset(name).noise.seed
        assert reseeded == preset(name)
    with pytest.raises(ConfigError, match="known presets: example1, example2_smooth, example2_piecewise, theory_study"):
        preset("unknown")


def test_implementation_defaults_flagged_in_echo():
    echo = json.loads(example1_config().to_json())
    assert "model.n" in echo["implementation_defaults"]
    assert "noise.fraction" in echo["implementation_defaults"]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_implementation_defaults_name_fields_of_their_config(name):
    echo = json.loads(preset(name).to_json())
    for entry in echo["implementation_defaults"]:
        node = echo
        for part in entry.split("."):
            key, index = re.fullmatch(r"(\w+)(?:\[(\d+)\])?", part).groups()
            assert isinstance(node, dict) and key in node, entry
            node = node[key] if index is None else node[key][int(index)]


def test_config_sections_state_only_what_a_study_can_vary():
    assert [f.name for f in dataclasses.fields(ModelSpec)] == ["kind", "n"]
    assert [f.name for f in dataclasses.fields(PenaltySpec)] == ["kind", "eps", "mu"]
    assert [f.name for f in dataclasses.fields(SolverPlan)] == ["max_iters", "grad_tol", "init"]
    for name in PRESETS:
        assert sorted(json.loads(preset(name).to_json())["model"]) == ["kind", "n"], name


def test_penalty_tags_unique_for_duplicate_kinds():
    specs = [PenaltySpec(kind="quadratic"), PenaltySpec(kind="quadratic")]
    assert len(set(penalty_tags(specs))) == 2


# ---------------------------------------------------------------------------
# running experiments

def test_run_experiment_bundle_contents():
    cfg = tiny_config()
    bundle = run_experiment(cfg)
    assert bundle.delta > 0
    assert len(bundle.results) == 1
    result = bundle.results[0]
    assert len(result.path) == 7
    assert len(result.outcomes) == 2
    assert result.outcomes[0].rule == "hanke_raus"
    assert result.outcomes[1].rule == "discrepancy"
    assert 0 < kappa_hat(result.path, bundle.delta) <= 1.0


def test_run_experiment_rejects_invalid_config():
    cfg = tiny_config()
    cfg.q = 2.0
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_custom_single_point_grid_selects_alpha0():
    cfg = tiny_config(j_max=0, rules=[RuleSpec(kind="hanke_raus")])
    bundle = run_experiment(cfg)
    assert bundle.results[0].outcomes[0].alpha_star == cfg.alpha0


def test_path_only_mode_skips_rules():
    bundle = run_experiment(tiny_config(), apply_rules=False)
    assert bundle.results[0].outcomes == []


def test_bundle_write_and_determinism(tmp_path):
    cfg = tiny_config()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    files_a = write_bundle(run_experiment(cfg), out_a)
    files_b = write_bundle(run_experiment(cfg), out_b)
    assert [p.name for p in files_a] == [p.name for p in files_b]
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes(), pa.name
    names = {p.name for p in files_a}
    assert {"config.json", "data.csv", "path_quadratic.csv", "outcomes.csv"} <= names
    assert "recon_quadratic_hanke_raus.csv" in names
    assert "recon_quadratic_discrepancy_tau1.2.csv" in names


def test_a_config_with_numpy_scalars_writes_the_plain_config_json(tmp_path):
    # numpy scalars pass validation, so writing them must not fail after the solves; the
    # config has no bool field, and a numpy string is a str
    def short_study(n, j_max, alpha0, experiment):
        cfg = preset("theory_study")
        cfg.model.n, cfg.j_max, cfg.alpha0, cfg.experiment = n, j_max, alpha0, experiment
        return cfg

    plain = short_study(21, 3, 1.0, "theory_study")
    scalars = short_study(np.int64(21), np.int64(3), np.float32(1.0), np.str_("theory_study"))
    assert validate_config(scalars) == []
    for name, cfg in (("plain", plain), ("numpy", scalars)):
        write_bundle(run_experiment(cfg), tmp_path / name)
    assert (tmp_path / "numpy" / "config.json").read_bytes() == (tmp_path / "plain" / "config.json").read_bytes()


def test_outcomes_report_whether_each_selection_converged(tmp_path):
    bundle = run_experiment(tiny_config())
    write_bundle(bundle, tmp_path)
    with open(tmp_path / "outcomes.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    outcomes = [o for result in bundle.results for o in result.outcomes]
    assert len(rows) == len(outcomes) == 2
    assert [row["selected_converged"] for row in rows] == [
        "true" if o.record.converged else "false" for o in outcomes]


def test_csv_format_lf_and_17_digits(tmp_path):
    bundle = run_experiment(tiny_config())
    files = write_bundle(bundle, tmp_path)
    path_csv = next(p for p in files if p.name == "path_quadratic.csv")
    raw = path_csv.read_bytes()
    assert b"\r" not in raw
    header = raw.decode().splitlines()[0].split(",")
    assert header[:8] == ["j", "alpha", "residual", "penalty", "theta", "objective",
                          "iters", "converged"]
    assert header[8:] == ["bregman_to_truth", "l2_error_to_truth"]
    first = raw.decode().splitlines()[1].split(",")
    # full-precision floats roundtrip exactly
    assert float(first[1]) == bundle.results[0].path[0].alpha
    assert float(first[4]) == bundle.results[0].path[0].theta


def test_seed_changes_noise_but_config_controls_everything_else():
    cfg_a = tiny_config()
    cfg_b = tiny_config()
    cfg_b.noise.seed = 6
    a = run_experiment(cfg_a)
    b = run_experiment(cfg_b)
    assert np.any(a.noisy_data.values != b.noisy_data.values)
    np.testing.assert_array_equal(a.exact_data.values, b.exact_data.values)


# Outputs pinned by sha256; a change to any of them is a change of results.
# A bundle's digest runs over the names and bytes of its files in name order.
PINNED_BUNDLES = {
    "example1": (14, "4948d81f3502abe3318011cc7d284e8848cb062b79adec2759e914f63933b05c"),
    "example2_smooth": (12, "14308ed16c0d8beff9671c1c4fa2c92d4233bf27882f43ff8119bab1ddde1ae9"),
    "example2_piecewise": (8, "1ea946d56f511db3398bea71a02056c672b77ca8bab55c12b8cb1ef3044d95c8"),
}
# The theory_study preset's theory.csv over THEORY_DELTAS, the file's own sha256,
# the same at one and at two BLAS threads.
PINNED_THEORY_CSV = "995900d4639b7a9a26f414576c17f17ab38fb83570ad0b8517e0902a2647758a"
THEORY_DELTAS = "0.2,0.1,0.05,0.025,0.0125"


def files_digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def pin_message(name, got, paths) -> str:
    """What a moved pin reports: the new count and digest, then each file's name and sha256 prefix."""
    listing = "".join(f"\n  {p.name} {hashlib.sha256(p.read_bytes()).hexdigest()[:16]}"
                      for p in sorted(Path(p) for p in paths))
    return f"{name} now writes {got[0]} files with digest {got[1]}:{listing}"


def run_cli_at_blas_threads(threads: str, cwd, *args: str) -> str:
    """The standard output of ``python -m regupath *args`` in a subprocess with ``OPENBLAS_NUM_THREADS=threads``."""
    src = str(Path(regupath.__file__).resolve().parents[1])
    python_path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": python_path}
    return subprocess.run([sys.executable, "-m", "regupath", *args], cwd=cwd, env=env, check=True,
                          capture_output=True, text=True).stdout


@pytest.mark.parametrize("name", sorted(PINNED_BUNDLES))
def test_preset_bundle_matches_pinned_digest(name, tmp_path, preset_bundle):
    bundle = preset_bundle(name)
    files = write_bundle(bundle, tmp_path) + emit_plots(bundle, tmp_path)
    got = (len(files), files_digest(files))
    assert got == PINNED_BUNDLES[name], pin_message(name, got, files)


@pytest.mark.parametrize("name", ["example2_smooth", "example2_piecewise"])
def test_preset_cli_run_matches_pinned_digest(name, tmp_path):
    # the pins hold at one and at two BLAS threads; example1's CLI run takes
    # about 14 s, and its in-process pin above covers the preset
    for threads in ("1", "2"):
        out = tmp_path / threads
        listed = run_cli_at_blas_threads(threads, tmp_path, "run", "--preset", name, "--out", str(out))
        files = [Path(line) for line in listed.splitlines()]
        assert sorted(files) == sorted(out.iterdir())
        got = (len(files), files_digest(files))
        assert got == PINNED_BUNDLES[name], f"at {threads} BLAS threads " + pin_message(name, got, files)


def test_theory_study_matches_pinned_digest(tmp_path):
    for threads in ("1", "2"):
        out = tmp_path / threads
        run_cli_at_blas_threads(threads, tmp_path, "theory", "--preset", "theory_study",
                                "--deltas", THEORY_DELTAS, "--out", str(out))
        digest = hashlib.sha256((out / "theory.csv").read_bytes()).hexdigest()
        assert digest == PINNED_THEORY_CSV, f"theory.csv (1 file) at {threads} BLAS threads now has sha256 {digest}"


def _theory_csv(config, path) -> bytes:
    deltas = [float(d) for d in THEORY_DELTAS.split(",")]
    return write_theory_report(run_theory_study(config, deltas), path).read_bytes()


def _impulsive_noise(cfg):
    cfg.noise = NoisePlan(kind="impulsive_gaussian", level=0.3, fraction=0.02, amplitude=1.0,
                          seed=cfg.noise.seed)


def _more_rules_and_penalties(cfg):
    cfg.rules.append(RuleSpec(kind="discrepancy", tau=1.3))
    cfg.penalties.append(PenaltySpec(kind="smoothed_tv"))


@pytest.mark.parametrize("change", [_impulsive_noise, _more_rules_and_penalties],
                         ids=["impulsive_noise", "more_rules_and_penalties"])
def test_theory_study_ignores_noise_kind_level_rules_and_later_penalties(change, tmp_path):
    # the study draws a Gaussian direction from noise.seed alone, solves the
    # first penalty only and always applies the theta-argmin rule
    cfg = preset("theory_study")
    change(cfg)
    assert validate_config(cfg) == []
    want = _theory_csv(preset("theory_study"), tmp_path / "preset.csv")
    assert _theory_csv(cfg, tmp_path / "changed.csv") == want


# The shipped study over seven halving noise levels, 0.2 down to 0.003125.
STUDY_DELTAS = [0.2 * 2.0**-k for k in range(7)]


def _study_and_selections(config, deltas):
    """``run_theory_study(config, deltas)``, and the selection made at each level with its path."""
    selections = []

    def recording_select(path):
        selections.append((hanke_raus_select(path), path))
        return selections[-1][0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regupath.rules, "hanke_raus_select", recording_select)
        report = run_theory_study(config, deltas)
    return report, selections


@pytest.fixture(scope="module")
def shipped_study():
    """The theory_study preset's report over STUDY_DELTAS, and the selection made at each level with its path."""
    return _study_and_selections(preset("theory_study"), STUDY_DELTAS)


def test_theory_study_bounds_the_bregman_error_at_every_level(shipped_study):
    # the paper's a-posteriori estimate, with the checks of acceptance test 5
    report, _ = shipped_study
    table = report.convergence_table
    ratios = [row.bound_ratio for row in table]
    assert [row.delta for row in table] == STUDY_DELTAS
    assert all(np.isfinite(ratio) and ratio <= 10.0 for ratio in ratios), ratios
    assert ratios[-1] <= 2.0 * max(ratios[:3]), ratios
    assert table[-1].bregman < table[0].bregman
    assert table[-1].alpha_star < table[0].alpha_star
    assert report.delta_bound_ok and report.alpha_bound_ok


def test_theory_study_rows_match_check_corollary_bounds(shipped_study):
    # each level's row is the one the oracle check_corollary_bounds computes
    # from the formulas for its selection under the noise delta * e, with
    # phi(t) = 2 ||w|| t for the source x = K w
    report, selections = shipped_study
    config = preset("theory_study")
    model = build_model(config.model)
    truth = truth_function(config.truth, model.x_grid)
    pen = build_penalty(config.penalties[0], model.x_grid)
    y = model.apply(truth)
    raw, norm = gaussian_draw(np.random.default_rng(config.noise.seed), y.grid, config.fidelity_r)
    e = y.with_values((1.0 / norm) * raw)
    t = model.x_grid.points()
    w_src = model.x_grid.function(0.1 * (np.sin(np.pi * t) + 0.5 * np.sin(3.0 * np.pi * t)))
    index = power_index(2.0 * lr_norm(w_src, 2.0), 1.0)
    assert len(selections) == len(report.convergence_table) == len(STUDY_DELTAS)
    for row, (outcome, path) in zip(report.convergence_table, selections):
        (want,) = check_corollary_bounds(outcome, path, row.delta * e, truth, pen, config.q, config.fidelity_r,
                                         index_fn=index).convergence_table
        assert (row.alpha_star, row.theta_star) == (want.alpha_star, want.theta_star)
        for name in ("delta", "bregman", "kappa_hat", "bound_ratio"):
            assert getattr(row, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0.0), name


def test_theta_of_the_study_on_smooth_mix_has_two_minima_and_its_argmin_jumps():
    # The theory_study config with truth smooth_mix, outside the range of K.
    # Between delta = 0.05 and 0.025 its selection jumps from alpha 0.33 to
    # 0.014.  The exact theta from the sine-transform oracle shows why: on a
    # 10x finer alpha grid theta has one interior local minimum while
    # delta >= 0.05 and a second, lower one at small alpha from 0.025 on.
    # The jump is a property of theta, not of the solves.
    config = preset("theory_study")
    config.truth = "smooth_mix"
    report, selections = _study_and_selections(config, STUDY_DELTAS)
    model = build_model(config.model)
    y = model.apply(truth_function(config.truth, model.x_grid))
    raw, norm = gaussian_draw(np.random.default_rng(config.noise.seed), y.grid, 2.0)
    direction = (1.0 / norm) * raw  # the study's noise direction, so data below are its data bit for bit
    n, weights, pen = y.n, y.grid.weights(), QuadraticPenalty()
    apply_mat = fredholm_apply_matrix(n)

    def oracle(data, alpha):
        x = spectral_tikhonov(data, alpha)
        return x, math.sqrt((weights * (apply_mat @ x - data) ** 2).sum())

    # Solver against oracle on the shipped grid at the two levels of the jump.
    # J(x) = ||K x - y||_W^2 + alpha ||x||_W^2 is 2 alpha-strongly convex in
    # the W-norm, so ||x - x_alpha||_W <= (||g~||_W + rho) / (2 alpha), with
    # g~ the gradient evaluated at the record's x and rho a bound on the
    # rounding of that evaluation.  Let u be the unit roundoff, g = (n + 5) u
    # (the dot product constant gamma_n plus the few roundings in each entry
    # of K) and k = ||K||_W = 40 / lambda_1; K >= 0 entrywise, so
    # ||K |v| ||_W <= k ||v||_W.  Then
    #   fl(K x) = K x + e1 with |e1| <= g K |x|, fl(. - y) adds at most u |r~|,
    #   fl(K 2 r~) adds at most g K |2 r~|, the product alpha (2 x) adds at
    #   most 2 alpha u |x| and the sum at most u |g~|, so
    #   rho = 2 g k (k ||x|| + 2 ||r~||) + u (||g~|| + 2 alpha ||x||).
    # The oracle's x* comes from two orthonormal DST-Is, each with normwise
    # error at most 10 u log2(n) (Higham, Accuracy and Stability, Thm 24.2,
    # with margin), around the scaling s_k = 40 lambda_k / (1600 + alpha
    # lambda_k^2) <= 1 / (2 sqrt(alpha)), so ||x* - x_alpha||_W <= eta =
    # sqrt(h) u (20 log2(n) + 1) ||y_int||_2 / (2 sqrt(alpha)).  Each side
    # evaluates its residual to within g k ||x||_W + g res.  So the two
    # residuals differ by at most
    #   E = k ((||g~|| + rho) / (2 alpha) + eta) + g k (||x|| + ||x*||) + g (res + res*),
    # and the two thetas by |res^2 - res*^2| / alpha <= E (2 res* + E) / alpha.
    u = np.finfo(float).eps / 2
    g = (n + 5) * u
    k = 40.0 / laplacian_eigenvalues(n)[0]
    for level in (2, 3):  # delta = 0.05 and 0.025
        data = y.values + STUDY_DELTAS[level] * direction
        fid = Fidelity(2.0, y.with_values(data))
        outcome, path = selections[level]
        assert len(path) == 36 and all(rec.converged for rec in path)
        thetas = []
        for rec in path:
            alpha = rec.alpha
            gradient = model.adjoint_derivative(rec.x, fid.gradient(rec.fx)) + alpha * pen.subgradient(rec.x)
            grad, x_norm = lr_norm(gradient, 2.0), lr_norm(rec.x, 2.0)
            rho = 2 * g * k * (k * x_norm + 2 * rec.residual) + u * (grad + 2 * alpha * x_norm)
            x_star, res_star = oracle(data, alpha)
            eta = (math.sqrt(y.grid.h) * u * (20 * math.log2(n) + 1) * np.linalg.norm(data[1:-1])
                   / (2 * math.sqrt(alpha)))
            err = (k * ((grad + rho) / (2 * alpha) + eta) + g * k * (x_norm + lr_norm(y.grid.function(x_star), 2.0))
                   + g * (rec.residual + res_star))
            assert abs(rec.theta - res_star**2 / alpha) <= err * (2 * res_star + err) / alpha, (level, alpha)
            thetas.append(res_star**2 / alpha)
        # the selection is the oracle's argmin on the same grid
        assert outcome.alpha_star == path[int(np.argmin(thetas))].alpha

    # theta on the 10x finer grid alpha0 q^(j/10), which spans the shipped one
    fine = config.alpha0 * config.q ** (np.arange(10 * config.j_max + 1) / 10)
    minima = []
    for delta in STUDY_DELTAS:
        data = y.values + delta * direction
        theta = np.array([oracle(data, alpha)[1] ** 2 / alpha for alpha in fine])
        inner = np.flatnonzero((theta[1:-1] < theta[:-2]) & (theta[1:-1] < theta[2:])) + 1
        minima.append((fine[inner], fine[np.argmin(theta)]))
    assert [len(at) for at, _ in minima] == [1, 1, 1, 2, 2, 2, 2]
    assert [argmin for _, argmin in minima] == [at[-1] for at, _ in minima]  # the smallest-alpha minimum wins
    above, below = minima[2][1], minima[3][1]
    assert 0.3 < above < 0.4 and 0.01 < below < 0.02
    assert 0.25 < min(at[0] for at, _ in minima[3:])  # the upper minimum stays, no longer the lowest
    # and the study's own selections jump with it
    star = [row.alpha_star for row in report.convergence_table]
    assert star[2] / star[3] > 10.0 and abs(math.log(star[2] / above)) < math.log(1.0 / config.q)
    assert abs(math.log(star[3] / below)) < math.log(1.0 / config.q)


def _other_truth(cfg):
    cfg.truth = "parabola_sine"


def _other_penalty(cfg):
    cfg.penalties[0] = PenaltySpec(kind="shifted_quadratic")


@pytest.mark.parametrize("change", [_other_truth, _other_penalty], ids=["truth", "penalty"])
def test_theory_study_without_a_known_index_function_reports_nan_ratios(change):
    cfg = preset("theory_study")
    change(cfg)
    report = run_theory_study(cfg, [0.2, 0.1])
    assert len(report.convergence_table) == 2
    assert all(np.isnan(row.bound_ratio) for row in report.convergence_table)
    assert all(np.isfinite(row.bregman) for row in report.convergence_table)


# ---------------------------------------------------------------------------
# plots

def test_emit_plots_writes_all_charts(tmp_path):
    bundle = run_experiment(tiny_config())
    files = emit_plots(bundle, tmp_path)
    names = {p.name for p in files}
    assert {"data.svg", "theta_quadratic.svg", "recon_quadratic_hanke_raus.svg"} <= names
    for p in files:
        text = p.read_text(encoding="utf-8")
        assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")


def test_emit_plots_deterministic_bytes(tmp_path):
    cfg = tiny_config()
    a = emit_plots(run_experiment(cfg), tmp_path / "a")
    b = emit_plots(run_experiment(cfg), tmp_path / "b")
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


def test_emit_plots_warns_on_empty_path(tmp_path):
    bundle = run_experiment(tiny_config(), apply_rules=False)
    bundle.results[0].path.clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        files = emit_plots(bundle, tmp_path)
    assert any("empty path" in str(w.message) for w in caught)
    assert not any("theta" in p.name for p in files)


def _within_seconds(seconds, fn):
    """``fn()``, or TimeoutError once ``seconds`` pass: a loop that never ends fails instead of filling memory."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("level", [1.0, 1e10])
def test_a_linear_axis_one_ulp_wide_gets_ticks(level):
    # the tick step is below half an ulp of the axis values, so adding it leaves a tick where it was
    y = np.array([level, np.nextafter(level, np.inf)])
    svg = _within_seconds(2.0, lambda: line_chart([("y", np.array([0.0, 1.0]), y)], "t", "x", "y"))
    y_ticks = [float(py) for py in re.findall(r'<line x1="70" y1="([^"]*)" x2="620"', svg)]
    assert 1 <= len(y_ticks) <= 7
    assert all(40 <= py <= 425 for py in y_ticks)  # inside the frame


@pytest.mark.parametrize("level", [2.0**53, 1e17, -1e300])
def test_a_constant_series_too_large_to_widen_by_one_is_drawn(level):
    # lo + 1 rounds back to lo there, so the axis is an ulp wide instead of a unit
    svg = line_chart([("y", np.array([0.0, 1.0]), np.array([level, level]))], "t", "x", "y")
    points = re.findall(r'<polyline points="([^"]*)"', svg)[0].split()
    assert len(points) == 2 and all(40 <= float(p.split(",")[1]) <= 425 for p in points)


def _scalar_px(axis, v: float) -> float:
    u = math.log10(v) if axis.log else v
    frac = (u - axis.lo) / (axis.hi - axis.lo)
    return axis.px0 + frac * (axis.px1 - axis.px0)


@settings(max_examples=300, deadline=None)
@given(log=st.booleans(), constant=st.booleans(), y=st.booleans(),
       values=st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=40), signs=st.lists(st.booleans()))
def test_the_array_axis_map_places_every_point_as_the_scalar_formula(log, constant, y, values, signs):
    # a log axis sees positive values only; a linear one either sign
    if not log:
        values = [-v if neg else v for v, neg in zip(values, signs + [False] * len(values))]
    if constant:
        values = values[:1] * len(values)
    axis = _Axis([np.array(values)], log, *((425, 40) if y else (70, 620)))
    got = axis.to_px(values).tolist()
    want = [_scalar_px(axis, v) for v in values]
    assert got == want
    assert " ".join(["%.2f"] * len(got)) % tuple(got) == " ".join(f"{p:.2f}" for p in want)


def test_a_log_axis_with_no_positive_value_falls_back_to_a_decade():
    svg = line_chart([("theta", np.array([1.0, 0.5]), np.array([0.0, 0.0]))], "t", "a", "theta",
                     xlog=True, ylog=True)
    assert "<polyline" not in svg
    assert re.findall(r'font-size="11">([^<]*)<', svg)


# ---------------------------------------------------------------------------
# theory report persistence

def test_write_theory_report_layout(tmp_path):
    report = TheoryReport(
        delta_star=0.12,
        lower_bound_alpha=0.001,
        convergence_table=[
            DeltaLevelRow(0.1, 0.3, 0.04, 0.02, 0.8, 0.4),
            DeltaLevelRow(0.05, 0.2, 0.02, 0.01, 0.82, 0.5),
        ],
        precondition_holds=True,
    )
    path = write_theory_report(report, tmp_path / "theory.csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "delta,alpha_star,theta_star,bregman,kappa_hat,bound_ratio"
    # the summary's delta, alpha_star and bound_ratio are the last row's
    assert {"delta,0.050000000000000003", "alpha_star,0.20000000000000001", "bound_ratio,0.5"} <= set(lines)
    assert len([l for l in lines if l and not l.startswith(("delta,", "key,"))]) >= 2
    assert any(l.startswith("kappa_estimate,") for l in lines)
    assert any(l == "precondition_holds,true" for l in lines)


def test_numpy_noise_levels_write_the_same_theory_csv_as_a_list(tmp_path):
    # the bound checks of an array's levels are numpy bools, and print as Python's do
    deltas = [0.1, 0.05]
    as_list = write_theory_report(run_theory_study(preset("theory_study"), deltas), tmp_path / "list.csv")
    as_array = write_theory_report(run_theory_study(preset("theory_study"), np.array(deltas)), tmp_path / "array.csv")
    assert "precondition_holds,true" in as_list.read_text(encoding="utf-8").splitlines()
    assert as_array.read_bytes() == as_list.read_bytes()
