import inspect
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import regupath.cli
import regupath.experiments
import regupath.rules
import regupath.solver
from regupath import DivergenceError, QuadraticPenalty, fredholm_model, run_delta_sequence
from regupath.cli import build_parser, main
from regupath.experiments import PRESETS, config_from_dict, run_experiment


def small_config_dict(out_dir):
    return {
        "experiment": "custom",
        "model": {"kind": "fredholm", "n": 31},
        "truth": "parabola_sine",
        "fidelity_r": 2.0,
        "penalties": [{"kind": "quadratic"}],
        "rules": [{"kind": "hanke_raus"}, {"kind": "discrepancy", "tau": 1.3}],
        "alpha0": 0.5,
        "q": 0.6,
        "j_max": 4,
        "noise": {"kind": "gaussian", "level": 0.05, "seed": 9},
        "solver": {"max_iters": 500, "grad_tol": 1e-7, "init": "zeros"},
        "output_dir": str(out_dir),
    }


@pytest.fixture
def config_file(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(small_config_dict(tmp_path / "out")), encoding="utf-8")
    return cfg_path


def test_run_exit_zero_and_outputs(config_file, tmp_path, capsys):
    rc = main(["run", "--config", str(config_file)])
    assert rc == 0
    out_dir = tmp_path / "out"
    assert (out_dir / "config.json").exists()
    assert (out_dir / "outcomes.csv").exists()
    assert (out_dir / "data.svg").exists()
    printed = capsys.readouterr().out
    assert "outcomes.csv" in printed


def test_run_out_override(config_file, tmp_path):
    alt = tmp_path / "elsewhere"
    rc = main(["run", "--config", str(config_file), "--out", str(alt)])
    assert rc == 0
    assert (alt / "outcomes.csv").exists()


def test_seed_override_changes_noise(config_file, tmp_path):
    rc = main(["run", "--config", str(config_file), "--out", str(tmp_path / "s9")])
    rc2 = main(["run", "--config", str(config_file), "--seed", "10", "--out", str(tmp_path / "s10")])
    assert rc == rc2 == 0
    a = (tmp_path / "s9" / "data.csv").read_bytes()
    b = (tmp_path / "s10" / "data.csv").read_bytes()
    assert a != b


def test_path_mode_writes_no_outcomes(config_file, tmp_path):
    alt = tmp_path / "path_only"
    rc = main(["path", "--config", str(config_file), "--out", str(alt)])
    assert rc == 0
    assert (alt / "path_quadratic.csv").exists()
    assert not (alt / "outcomes.csv").exists()


def test_theory_mode_writes_report(config_file, tmp_path, capsys):
    alt = tmp_path / "theory_out"
    rc = main(["theory", "--config", str(config_file), "--deltas", "0.1,0.05", "--out", str(alt)])
    assert rc == 0
    text = (alt / "theory.csv").read_text(encoding="utf-8")
    assert text.startswith("delta,alpha_star,theta_star,bregman,kappa_hat")
    assert "delta=" in capsys.readouterr().out


def test_config_error_exit_code_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "wat"}), encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    # two taus that print alike would write the same reconstruction files
    data = small_config_dict(tmp_path / "out")
    data["rules"] = [{"kind": "discrepancy", "tau": 1.0000001}, {"kind": "discrepancy", "tau": 1.0000002}]
    bad.write_text(json.dumps(data), encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 2
    assert "config error: rules[1] writes the files of rules[0]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_alpha0_below_path_floor_exit_code_2(tmp_path, capsys):
    # every grid point would lie below the path's alpha floor, leaving no path
    data = small_config_dict(tmp_path / "out")
    data["alpha0"] = 1e-13
    cfg_path = tmp_path / "tiny_alpha0.json"
    cfg_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "config error: alpha0 must be at least the path floor 1e-12, got 1e-13" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_config_file_exit_code_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_config_file_not_utf8_exit_code_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["run", "--config", str(bad)]) == 2
    assert f"config error: cannot read config file {str(bad)!r}: 'utf-8' codec can't decode" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "path", "theory"])
def test_output_directory_below_a_file_exit_code_2(config_file, tmp_path, capsys, monkeypatch, command):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the output directory was checked")

    monkeypatch.setattr(regupath.cli, "run_experiment", no_solve)
    monkeypatch.setattr(regupath.cli, "run_theory_study", no_solve)
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n", encoding="utf-8")
    out = blocker / "out"
    extra = ["--deltas", "0.1,0.05"] if command == "theory" else []
    assert main([command, "--config", str(config_file), "--out", str(out), *extra]) == 2
    assert f"config error: cannot create output directory {str(out)!r}: " in capsys.readouterr().err
    assert blocker.read_text(encoding="utf-8") == "a regular file\n"


@pytest.mark.parametrize("command", ["run", "path", "theory"])
def test_empty_out_exit_code_2(config_file, tmp_path, capsys, monkeypatch, command):
    # an empty --out is not "no --out": it must not fall back to the config's directory
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    extra = ["--deltas", "0.1,0.05"] if command == "theory" else []
    assert main([command, "--config", str(config_file), "--out", "", *extra]) == 2
    assert "config error: --out must be a nonempty directory path" in capsys.readouterr().err
    assert list(work.iterdir()) == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("deltas", ["abc", "0.1,0.2", "-0.1", "0.1,nan", "inf,0.1"])
def test_bad_deltas_exit_code_2(config_file, tmp_path, capsys, deltas):
    out = tmp_path / "theory_out"
    assert main(["theory", "--config", str(config_file), "--deltas", deltas, "--out", str(out)]) == 2
    assert "config error: " in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_exit_code_2(tmp_path, capsys):
    data = small_config_dict(tmp_path / "out")
    data["noise"]["seed"] = -3
    cfg_path = tmp_path / "negative_seed.json"
    cfg_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "config error: noise.seed must be a nonnegative integer, got -3" in capsys.readouterr().err
    cfg_path.write_text(json.dumps(small_config_dict(tmp_path / "out")), encoding="utf-8")
    for command in (["run"], ["theory", "--deltas", "0.1,0.05"]):
        assert main(command + ["--config", str(cfg_path), "--seed", "-4"]) == 2
        assert "config error: noise.seed must be a nonnegative integer, got -4" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_divergent_solve_exit_code_3(tmp_path, capsys):
    data = small_config_dict(tmp_path / "digress")
    # an enormous impulsive amplitude with a large misfit exponent overflows
    # the objective at the zero initial guess
    data["fidelity_r"] = 60.0
    data["noise"] = {"kind": "impulsive", "fraction": 0.1, "amplitude": 1e9, "seed": 1}
    cfg_path = tmp_path / "divergent.json"
    cfg_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert "solver failure" in capsys.readouterr().err
    # a finite objective whose gradient 2 * alpha * x overflows at the ones initial guess
    data = small_config_dict(tmp_path / "digress")
    data["alpha0"] = 1e308
    data["solver"]["init"] = "ones"
    cfg_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert "gradient is non-finite" in capsys.readouterr().err
    # both fail at j = 0, so there is no partial path to keep
    assert not (tmp_path / "digress").exists()


def test_aborted_path_keeps_its_records_exit_code_3(config_file, tmp_path, capsys, monkeypatch):
    calls = []
    solve = regupath.solver.solve_tikhonov

    def third_call_diverges(*args):
        calls.append(1)
        if len(calls) == 3:
            raise DivergenceError("objective is non-finite")
        return solve(*args)

    monkeypatch.setattr(regupath.solver, "solve_tikhonov", third_call_diverges)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file)]) == 3
    captured = capsys.readouterr()
    assert "solver failure: path aborted at alpha=" in captured.err
    assert captured.out.splitlines() == [str(out / "path_aborted.csv")]
    assert sorted(p.name for p in out.iterdir()) == ["path_aborted.csv"]
    lines = (out / "path_aborted.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "j,alpha,residual,penalty,theta,objective,iters,converged"
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(r[0]), float(r[1])) for r in rows] == [(0, 0.5), (1, 0.5 * 0.6)]


def test_abort_keeps_finished_penalties_and_names_its_penalty(tmp_path, capsys, monkeypatch):
    # the quadratic path's five solves finish; the smoothed TV path's second solve diverges
    data = small_config_dict(tmp_path / "out")
    data["penalties"] = [{"kind": "quadratic"}, {"kind": "smoothed_tv"}]
    cfg_path = tmp_path / "two_penalties.json"
    cfg_path.write_text(json.dumps(data), encoding="utf-8")
    calls = []
    solve = regupath.solver.solve_tikhonov

    def seventh_call_diverges(*args):
        calls.append(1)
        if len(calls) == 7:
            raise DivergenceError("objective is non-finite")
        return solve(*args)

    monkeypatch.setattr(regupath.solver, "solve_tikhonov", seventh_call_diverges)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "solver failure: path aborted at alpha=0.3: objective is non-finite (penalty smoothed_tv)\n"
    finished = ["config.json", "data.csv", "path_quadratic.csv", "recon_quadratic_hanke_raus.csv",
                "recon_quadratic_discrepancy_tau1.3.csv", "outcomes.csv"]
    assert captured.out.splitlines() == [str(out / name) for name in finished + ["path_aborted.csv"]]
    assert sorted(p.name for p in out.iterdir()) == sorted(finished + ["path_aborted.csv"])
    aborted = (out / "path_aborted.csv").read_text(encoding="utf-8").splitlines()
    assert aborted[0] == "j,alpha,residual,penalty,theta,objective,iters,converged"
    assert [float(row.split(",")[1]) for row in aborted[1:]] == [0.5]
    # the finished penalty's files are those of a completed run of that penalty alone
    monkeypatch.undo()
    data["penalties"], data["output_dir"] = [{"kind": "quadratic"}], str(tmp_path / "alone")
    cfg_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path)]) == 0
    for name in finished[1:]:
        assert (out / name).read_bytes() == (tmp_path / "alone" / name).read_bytes(), name
    quadratic = (out / "path_quadratic.csv").read_text(encoding="utf-8").splitlines()
    assert quadratic[0].endswith(",converged,bregman_to_truth,l2_error_to_truth")
    assert [int(row.split(",")[0]) for row in quadratic[1:]] == [0, 1, 2, 3, 4]


def test_theory_abort_names_its_noise_level(config_file, tmp_path, capsys, monkeypatch):
    # the second level's third solve diverges, after two of its records
    levels = []
    solve_path, solve = regupath.rules.compute_alpha_path, regupath.solver.solve_tikhonov

    def counting_path(*args):
        levels.append(0)
        return solve_path(*args)

    def third_solve_of_second_level_diverges(*args):
        levels[-1] += 1
        if len(levels) == 2 and levels[-1] == 3:
            raise DivergenceError("objective is non-finite")
        return solve(*args)

    monkeypatch.setattr(regupath.rules, "compute_alpha_path", counting_path)
    monkeypatch.setattr(regupath.solver, "solve_tikhonov", third_solve_of_second_level_diverges)
    out = tmp_path / "theory_out"
    assert main(["theory", "--config", str(config_file), "--deltas", "0.1,0.05", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "objective is non-finite (delta=0.05)" in captured.err
    assert captured.out.splitlines() == [str(out / "theory.csv"), str(out / "path_aborted.csv")]
    lines = (out / "path_aborted.csv").read_text(encoding="utf-8").splitlines()
    assert [int(row.split(",")[0]) for row in lines[1:]] == [0, 1]
    assert sorted(p.name for p in out.iterdir()) == ["path_aborted.csv", "theory.csv"]
    # the finished level's theory.csv is that of a completed study of that level alone
    monkeypatch.undo()
    alone = tmp_path / "alone"
    assert main(["theory", "--config", str(config_file), "--deltas", "0.1", "--out", str(alone)]) == 0
    assert (out / "theory.csv").read_bytes() == (alone / "theory.csv").read_bytes()
    assert (out / "theory.csv").read_text(encoding="utf-8").splitlines()[1].startswith("0.10000000000000001,")


def test_removed_config_keys_exit_code_2(tmp_path, capsys):
    # fixed facts of the shipped problems are no longer config fields
    data = small_config_dict(tmp_path / "out")
    data["model"] = {"kind": "elliptic", "n": 401, "subintervals": 400, "g0": 1.0, "g1": 6.0, "source": "gaussian_bump"}
    data["penalties"] = [{"kind": "shifted_quadratic", "c0": "linear_t"}]
    data["solver"]["grad_tol_abs"] = 1e-6
    cfg_path = tmp_path / "old_keys.json"
    cfg_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        *(f"config error: model: unknown key {key!r}" for key in ("subintervals", "g0", "g1", "source")),
        "config error: penalties[0]: unknown key 'c0'",
        "config error: solver: unknown key 'grad_tol_abs'",
    ]
    assert not (tmp_path / "out").exists()


def test_noise_beyond_float_range_exit_code_2(tmp_path, capsys):
    data = small_config_dict(tmp_path / "out")
    data["noise"] = {"kind": "gaussian", "level": 1e308}
    cfg_path = tmp_path / "huge_noise.json"
    cfg_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "config error: noise: gaussian noise of this size gives noisy data beyond the float range" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_theory_noise_beyond_float_range_exit_code_2(config_file, tmp_path, capsys, monkeypatch):
    # the largest level overflows y + delta * direction before any path is solved
    paths = []
    solve_path = regupath.rules.compute_alpha_path
    monkeypatch.setattr(regupath.rules, "compute_alpha_path", lambda *a: paths.append(1) or solve_path(*a))
    out = tmp_path / "theory_out"
    assert main(["theory", "--config", str(config_file), "--deltas", "1e308,0.1", "--out", str(out)]) == 2
    assert "config error: deltas: noise levels up to 1e+308 give noisy data beyond the float range" \
        in capsys.readouterr().err
    assert paths == [] and not out.exists()


def test_nonfinite_number_exit_code_2(tmp_path, capsys):
    data = json.dumps(small_config_dict(tmp_path / "out")).replace('"level": 0.05', '"level": Infinity')
    cfg_path = tmp_path / "nonfinite.json"
    cfg_path.write_text(data, encoding="utf-8")
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "config error: noise.level must be a finite number" in capsys.readouterr().err


def test_thread_pools_and_their_knob_are_gone(tmp_path, monkeypatch):
    # every path is solved in the calling thread; the two max_workers left
    # accept only 1 and refuse any other value before solving anything
    for source in Path(regupath.cli.__file__).parent.glob("*.py"):
        text = source.read_text(encoding="utf-8")
        for word in ("REGUPATH_THREADS", "ThreadPoolExecutor", "concurrent.futures", "threading"):
            assert word not in text, (source.name, word)
    assert list(inspect.signature(regupath.experiments.run_theory_study).parameters) == ["config", "deltas"]
    paths = []
    for module in (regupath.experiments, regupath.rules):
        monkeypatch.setattr(module, "compute_alpha_path", lambda *a: paths.append(1))
    with pytest.raises(ValueError, match="max_workers must be 1, got 2"):
        run_experiment(config_from_dict(small_config_dict(tmp_path / "out")), max_workers=2)
    model = fredholm_model(31)
    x = model.x_grid.from_callable(np.sin)
    with pytest.raises(ValueError, match="max_workers must be 1, got 2"):
        run_delta_sequence(model, QuadraticPenalty(), 2.0, 0.5, 0.6, 4, [0.1, 0.05], 9, x, max_workers=2)
    assert paths == []


@pytest.mark.parametrize("extra, message", [
    ([], "one of the arguments --config --preset is required"),
    (["--config", "config.json", "--preset", "example1"], "argument --preset: not allowed with argument --config"),
])
def test_config_and_preset_are_one_choice_exit_code_2(capsys, extra, message):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["run", *extra])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_unknown_preset_exit_code_2_lists_the_presets(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["path", "--preset", "nope"])
    assert exc.value.code == 2
    assert f"invalid choice: 'nope' (choose from {', '.join(map(repr, PRESETS))})" in capsys.readouterr().err


def test_seed_overrides_a_preset_noise_seed(tmp_path, capsys):
    for seed in ([], ["--seed", "3"]):
        out = tmp_path / f"seed{len(seed)}"
        assert main(["path", "--preset", "theory_study", *seed, "--out", str(out)]) == 0
        echo = json.loads((out / "config.json").read_text(encoding="utf-8"))
        assert echo["noise"]["seed"] == (3 if seed else 7)
    capsys.readouterr()
    assert (tmp_path / "seed0" / "data.csv").read_bytes() != (tmp_path / "seed2" / "data.csv").read_bytes()


def test_readme_shipped_studies_parse_and_name_no_script():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert "scripts/" not in readme
    block = re.search(r"## Shipped studies\n\n```sh\n(.*?)```", readme, re.S).group(1)
    presets = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "regupath", line
        presets.append(build_parser().parse_args(argv[1:]).preset)
    assert sorted(presets) == sorted(PRESETS)
