import csv
import dataclasses
import hashlib
import json
import os
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
    ExperimentConfig,
    ModelSpec,
    NoisePlan,
    PenaltySpec,
    RuleSpec,
    SolverPlan,
    config_from_dict,
    config_from_json,
    emit_plots,
    example1_config,
    example2_piecewise_config,
    example2_smooth_config,
    preset,
    run_experiment,
    validate_config,
    write_bundle,
    write_theory_report,
)
from regupath.cli import main
from regupath.experiments import PRESETS, penalty_tags, run_theory_study
from regupath.rules import DeltaLevelRow, TheoryReport


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
        solver=SolverPlan(max_iters=800, grad_tol=1e-8, grad_tol_abs=1e-7, init="zeros"),
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
        ('{"model": {"kind": "elliptic", "g0": "high"}}', "model.g0"),
    ],
)
def test_malformed_input_is_a_config_error(text, field):
    with pytest.raises(ConfigError) as excinfo:
        config_from_json(text)
    assert [e.split(" ", 1)[0] for e in excinfo.value.errors] == [field]


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
    assert ex2.model.kind == "elliptic" and ex2.model.subintervals == 400
    assert ex2.model.g0 == 1.0 and ex2.model.g1 == 6.0
    assert ex2.fidelity_r == 2.0
    assert ex2.alpha0 == 0.005 and ex2.q == 0.8
    assert ex2.noise.level == 0.0025
    kinds = [p.kind for p in ex2.penalties]
    assert kinds == ["quadratic", "shifted_quadratic"]
    assert ex2.penalties[1].c0 == "linear_t"

    ex3 = example2_piecewise_config()
    assert ex3.alpha0 == 0.001 and ex3.q == 0.8
    assert ex3.noise.level == 0.001
    assert ex3.penalties[0].kind == "smoothed_tv"
    assert ex3.penalties[0].mu == 0.001


def test_presets_validate_clean():
    for name in PRESETS:
        assert validate_config(preset(name)) == []
    with pytest.raises(ConfigError, match="known presets: example1, example2_smooth, example2_piecewise, theory_study"):
        preset("unknown")


def test_implementation_defaults_flagged_in_echo():
    echo = json.loads(example1_config().to_json())
    assert "model.n" in echo["implementation_defaults"]
    assert "noise.fraction" in echo["implementation_defaults"]


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
    assert 0 < result.kappa_hat <= 1.0


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
    "example1": (14, "3b831dfb6a1b216022c7a099a0abb11a1893122083c897a74c7dd62816943ec7"),
    "example2_smooth": (12, "be5f1420d3aeaefeb8e220a3f03c00e2838c3e7874137d09626598a09482ffde"),
    "example2_piecewise": (8, "9507c0186eafd6fe2e19260cd3c63dfb57b7590ef3bd844ae456803ed417a664"),
}
# The theory_study preset's theory.csv over THEORY_DELTAS, the file's own sha256,
# at one BLAS thread: the dense Gauss-Newton step's dsyrk and dposv thread their sums.
PINNED_THEORY_CSV = "9f059a352985ebac243fdbbacffc191af0589a79ff13c12439c37acaf8ed3801"
THEORY_DELTAS = "0.2,0.1,0.05,0.025,0.0125"


def files_digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_BUNDLES))
def test_preset_bundle_matches_pinned_digest(name, tmp_path, preset_bundle):
    bundle = preset_bundle(name)
    files = write_bundle(bundle, tmp_path) + emit_plots(bundle, tmp_path)
    got = (len(files), files_digest(files))
    assert got == PINNED_BUNDLES[name], f"{name} now writes {got[0]} files with digest {got[1]}"


@pytest.mark.parametrize("name", ["example2_smooth", "example2_piecewise"])
def test_preset_cli_run_matches_pinned_digest(name, tmp_path, capsys):
    # example1's CLI run takes about 14 s; its in-process pin above covers the preset
    assert main(["run", "--preset", name, "--out", str(tmp_path)]) == 0
    files = [Path(line) for line in capsys.readouterr().out.splitlines()]
    assert sorted(files) == sorted(tmp_path.iterdir())
    got = (len(files), files_digest(files))
    assert got == PINNED_BUNDLES[name], f"{name} now writes {got[0]} files with digest {got[1]}"


def test_theory_study_matches_pinned_digest(tmp_path):
    src = str(Path(regupath.__file__).resolve().parents[1])
    python_path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": python_path}
    subprocess.run([sys.executable, "-m", "regupath", "theory", "--preset", "theory_study",
                    "--deltas", THEORY_DELTAS, "--out", str(tmp_path)],
                   cwd=tmp_path, env=env, check=True, capture_output=True)
    digest = hashlib.sha256((tmp_path / "theory.csv").read_bytes()).hexdigest()
    assert digest == PINNED_THEORY_CSV, f"theory.csv (1 file) now has sha256 {digest}"


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


# ---------------------------------------------------------------------------
# theory report persistence

def test_write_theory_report_layout(tmp_path):
    report = TheoryReport(
        kappa_estimate=0.8,
        delta=0.1,
        delta_star=0.12,
        alpha_star=0.3,
        lower_bound_alpha=0.001,
        bound_ratio=0.5,
        convergence_table=[
            DeltaLevelRow(0.1, 0.3, 0.04, 0.02, 0.8),
            DeltaLevelRow(0.05, 0.2, 0.02, 0.01, 0.82),
        ],
        precondition_holds=True,
        delta_bound_ok=True,
        alpha_bound_ok=True,
    )
    path = write_theory_report(report, tmp_path / "theory.csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "delta,alpha_star,theta_star,bregman,kappa_hat"
    assert len([l for l in lines if l and not l.startswith(("delta,", "key,"))]) >= 2
    assert any(l.startswith("kappa_estimate,") for l in lines)
    assert any(l == "precondition_holds,true" for l in lines)
