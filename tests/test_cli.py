import json
import re
import shlex
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import regupath.cli
import regupath.experiments
import regupath.rules
import regupath.solver
from regupath import DivergenceError
from regupath.cli import build_parser, main
from regupath.experiments import PRESETS


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
        "solver": {"max_iters": 500, "grad_tol": 1e-7, "grad_tol_abs": 1e-6, "init": "zeros"},
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


def test_threads_env_does_not_change_results(tmp_path, monkeypatch, capsys):
    # two penalties and two noise levels, so that both thread pools start
    data = small_config_dict(tmp_path / "out")
    data["penalties"] = [{"kind": "quadratic"}, {"kind": "shifted_quadratic", "c0": "linear_t"}]
    cfg_path = tmp_path / "two_penalties.json"
    cfg_path.write_text(json.dumps(data), encoding="utf-8")
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(regupath.experiments, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(regupath.rules, "ThreadPoolExecutor", RecordingPool)
    for threads in ("1", "4"):
        monkeypatch.setenv("REGUPATH_THREADS", threads)
        out = tmp_path / f"t{threads}"
        assert main(["run", "--config", str(cfg_path), "--out", str(out / "run")]) == 0
        theory = ["theory", "--config", str(cfg_path), "--deltas", "0.1,0.05", "--out", str(out / "theory")]
        assert main(theory) == 0
    assert pools == [4, 4]
    capsys.readouterr()
    files = sorted(p.relative_to(tmp_path / "t1") for p in (tmp_path / "t1").rglob("*") if p.is_file())
    assert Path("run/path_shifted_quadratic.csv") in files and Path("theory/theory.csv") in files
    for name in files:
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t4" / name).read_bytes(), name


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
