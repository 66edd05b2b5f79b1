import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import regupath.experiments
import regupath.rules
from regupath.cli import main


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
