"""Smoke runs of the benchmark, which patches module attributes of regupath.

A refactor that renames or bypasses one of the patched names breaks the
benchmark's recorder or tracer; this catches it in the test suite.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--blas-threads", "1",
           "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    return result


def test_benchmark_traced_theory_study_is_correct():
    _run("theory_study", trace=1)


def test_benchmark_traced_elliptic_tv_converges_everywhere():
    # every alpha solve of example2_piecewise meets the gradient test
    metrics = _run("elliptic_tv", trace=1)["metrics"]
    assert metrics["solver.converged"]["value"] == metrics["solver.solves"]["value"] > 0


def test_benchmark_untraced_theory_study_reports_the_declared_metrics():
    # the untraced mode, with its setup probes, is the one whose metrics are compared
    result = _run("theory_study", trace=0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    assert result["failed"] == 0
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
