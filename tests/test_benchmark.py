"""Smoke run of the benchmark, which patches module attributes of regupath.

A refactor that renames or bypasses one of the patched names breaks the
benchmark's recorder or tracer; this catches it in the test suite.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_traced_theory_study_is_correct():
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--blas-threads", "1",
           "--workload", "theory_study", "--seed", "1", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
