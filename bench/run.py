#!/usr/bin/env python3
"""regupath benchmark: alpha-path workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --blas-threads 1 --workload fredholm_outliers \\
        --seed 1 --seconds 5 --trace 0

It imports regupath from ``src/`` next to this directory, runs whole
workload units until ``--seconds`` have passed (at least one), checks every
unit's outputs, and prints a report followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` installs the per-layer shims of
``shims.py`` and reports the per-layer metrics instead.  See BASELINE.md for
the workloads, the metrics and the measured baseline.

Each workload runs at its shipped noise seed (``--noise-seed`` overrides
it).  ``--seed`` does not change the noise: with this solver the work done
depends chaotically on the noise draw (example1 at noise seeds 1, 2 and 3
takes 70k, 108k and 80k iterations), so a per-run noise seed would swamp
every time and count.  ``--seed`` instead drives the order in which each
path is fed to the selection rules in the correctness checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack
from pathlib import Path

from checks import Checks, digest
from shims import Recorder, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

# Each workload stresses a different layer; see BASELINE.md for the split.
# Every workload runs one worker: the thread pool is GIL-bound, and on 2 vCPUs
# its wall time swings with how fast the idle vCPU wakes at each GIL handoff
# (wall IQR 29 % over 10 two-worker runs, against 14 % for CPU time).
WORKLOADS = {
    # example1: dense 401x401 Fredholm matvec, r = 1.01 misfit, 4 rules.
    "fredholm_outliers": {"preset": "example1", "noise_seed": 7571, "max_iters": None},
    # example2_piecewise: tridiagonal solves, smoothed TV, projection.  Its
    # first 19 solves run into the 6000-iteration cap (63 of 68 s on a 2-core
    # Xeon); halving the cap keeps that character and lets 22 runs of every
    # workload fit in the benchmark's time budget.
    "elliptic_tv": {"preset": "example2_piecewise", "noise_seed": 2203, "max_iters": 3000},
    # scripts/theory_study.py: small n, per-call overhead.
    "theory_study": {"preset": None, "noise_seed": 7, "max_iters": None},
}
SETUP_SAMPLES = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--blas-threads", type=int, default=1)
    ap.add_argument("--noise-seed", type=int, default=None)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.noise_seed is None:
        args.noise_seed = WORKLOADS[args.workload]["noise_seed"]
    if args.blas_threads < 1:
        ap.error("--blas-threads must be positive")
    return args


# ---------------------------------------------------------------------------
# set-up: model, truth and noisy data, built as run_experiment builds them

class Setup:
    def __init__(self, regupath, workload: str, noise_seed: int):
        import numpy as np

        name = WORKLOADS[workload]["preset"]
        if name is None:
            # The shrinking-noise study of scripts/theory_study.py.
            self.model = regupath.fredholm_model(101)
            t = self.model.x_grid.points()
            w_src = self.model.x_grid.function(0.1 * (np.sin(np.pi * t) + 0.5 * np.sin(3 * np.pi * t)))
            self.x_dagger = self.model.apply(w_src)
            self.config = None
            return
        experiments = regupath.experiments
        self.config = regupath.preset(name, seed=noise_seed)
        if WORKLOADS[workload]["max_iters"] is not None:
            self.config.solver.max_iters = WORKLOADS[workload]["max_iters"]
        self.model = experiments.build_model(self.config.model)
        truth = experiments.truth_function(self.config.truth, self.model.x_grid)
        self.noisy, self.delta = regupath.make_noisy(
            self.model.apply(truth), self.config.noise.to_spec(), norm_exponent=self.config.fidelity_r
        )


def import_and_setup(args):
    t0 = time.perf_counter()
    import regupath

    setup = Setup(regupath, args.workload, args.noise_seed)
    return regupath, setup, time.perf_counter() - t0


def setup_probes(args, count: int):
    """Set-up seconds of ``count`` fresh interpreters, each import included."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--trace", "0", "--blas-threads", str(args.blas_threads),
           "--noise-seed", str(args.noise_seed)]
    out = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# one unit of work

def run_unit(regupath, setup, args, tracer, out: Path):
    """Run one workload unit; returns (outputs, timings, payload)."""
    clock = time.perf_counter
    timings = {"write_bundle": 0.0, "emit": 0.0, "delta_sequence": 0.0}
    if setup.config is not None:
        bundle = regupath.run_experiment(setup.config, max_workers=1)
        t = clock()
        files = regupath.write_bundle(bundle, out)
        timings["write_bundle"] = clock() - t
        t = clock()
        svgs = regupath.emit_plots(bundle, out)
        timings["emit"] = clock() - t
        return files, svgs, timings, bundle
    model = setup.model if tracer is None else tracer.wrap_model(setup.model)
    t = clock()
    report = regupath.run_delta_sequence(
        model, regupath.QuadraticPenalty(), 2.0, 1.0, 0.8, 35,
        deltas=[0.2, 0.1, 0.05, 0.025, 0.0125], seed=args.noise_seed, x_dagger=setup.x_dagger,
        opts=regupath.SolveOptions(max_iters=3000, grad_tol=1e-9, grad_tol_abs=1e-6),
        max_workers=1,
    )
    timings["delta_sequence"] = clock() - t
    t = clock()
    files = [regupath.write_theory_report(report, out / "theory.csv")]
    timings["write_bundle"] = clock() - t
    return files, [], timings, report


def check_unit(regupath, setup, args, recorder, payload, files, checks):
    """Correctness checks of one unit; returns its convergence summary."""
    rng = random.Random(args.seed)
    by_record = {}
    for solve in recorder.solves:
        by_record[id(solve.record)] = checks.solve(regupath, solve)
    attempted = failed = 0
    for path in recorder.paths:
        reached = len(path.records)
        attempted += path.j_max + 1 if path.aborted else reached
        failed += path.j_max + 1 - reached if path.aborted else 0
        checks.expect(not path.aborted, f"path aborted after {reached} of {path.j_max + 1} alphas")
    failed += sum(not c.ok for c in by_record.values())

    selected = []
    if payload is None:
        pass  # the unit aborted; its unreached solves are counted above
    elif setup.config is not None:
        bundle = payload
        checks.expect(bool((bundle.noisy_data.values == setup.noisy.values).all()) and bundle.delta == setup.delta,
                      "noisy data differ from an independent build")
        for result in bundle.results:
            for k, outcome in enumerate(result.outcomes):
                checks.selection(regupath, result.path, outcome, setup.config.fidelity_r, bundle.delta,
                                 rng, f"{result.tag} rule {k}")
                selected.append(outcome.record)
    else:
        report = payload
        y = setup.model.apply(setup.x_dagger)
        rows = {row.delta: row for row in report.convergence_table}
        checks.expect(len(rows) == len(recorder.paths), "one path per noise level")
        for path in recorder.paths:
            level = regupath.lr_norm(path.fid.target - y, path.fid.r)
            row = rows[min(rows, key=lambda d: abs(d - level))]
            checks.expect(abs(row.delta - level) <= 1e-9 * row.delta, f"no row for noise level {level}")
            outcome = regupath.hanke_raus_select(path.records)
            tag = f"delta={row.delta:g}"
            checks.selection(regupath, path.records, outcome, path.fid.r, row.delta, rng, tag)
            checks.expect(row.alpha_star == outcome.alpha_star and row.theta_star == outcome.record.theta,
                          f"{tag}: table row differs from the selection")
            pen = path.pen
            breg = regupath.bregman_distance(pen, pen.subgradient(setup.x_dagger), outcome.record.x, setup.x_dagger)
            checks.close(f"{tag} bregman", row.bregman, breg)
            kappa = min(1.0, min(rec.residual for rec in path.records) / row.delta)
            checks.close(f"{tag} kappa_hat", row.kappa_hat, kappa)
            selected.append(outcome.record)

    sel = [by_record[id(rec)] for rec in selected]
    solves = list(by_record.values())
    return {
        "attempted": attempted,
        "failed": failed,
        "converged": sum(c.converged for c in solves),
        "max_iters_hits": sum(c.stop == "max_iters" for c in solves),
        "stalls": sum(c.stop == "stall" for c in solves),
        "iters": sum(s.record.iters for s in recorder.solves),
        "selected": len(sel),
        "selected_unconverged": sum(not c.converged for c in sel),
        # geometric mean of max(1, |g| / tol); 1 when every selected record converged
        "selected_grad_excess": math.exp(math.fsum(math.log(max(1.0, c.grad_ratio)) for c in sel) / max(len(sel), 1)),
        "digest": digest(files),
    }


# ---------------------------------------------------------------------------
# metrics

def layer_metrics(tracer, recorder, timings, files, svgs, unit_wall):
    calls, busy = tracer.totals()
    iters = sum(s.record.iters for s in recorder.solves)

    def us(key):
        return busy[key] / calls[key] * 1e6 if calls[key] else 0.0

    def per_iter(key):
        return calls[key] / iters if iters else 0.0

    model = recorder.solves[0].model if recorder.solves else None
    flops = 2 * model.x_grid.n ** 2 if model is not None and model.name == "fredholm" else 0
    conv = [s.record for s in recorder.solves]
    seq = timings["delta_sequence"]
    return {
        "models.apply_calls": calls["models.apply"],
        "models.apply_us": us("models.apply"),
        "models.apply_s": busy["models.apply"],
        "models.adjoint_calls": calls["models.adjoint"],
        "models.adjoint_us": us("models.adjoint"),
        "models.adjoint_s": busy["models.adjoint"],
        "models.apply_per_iter": per_iter("models.apply"),
        "models.apply_gflops_computed": (
            calls["models.apply"] * flops / busy["models.apply"] / 1e9 if flops and busy["models.apply"] else 0.0
        ),
        "models.project_calls": calls["models.project"],
        "models.project_us": us("models.project"),
        "grid.tridiag_calls": calls["grid.tridiag"],
        "grid.tridiag_us": us("grid.tridiag"),
        "grid.tridiag_s": busy["grid.tridiag"],
        "grid.tridiag_per_iter": per_iter("grid.tridiag"),
        "grid.gridfunction_calls": calls["grid.gridfunction"],
        "grid.gridfunction_per_iter": per_iter("grid.gridfunction"),
        "penalties.fid_value_s": busy["penalties.fid_value"],
        "penalties.fid_grad_s": busy["penalties.fid_grad"],
        "penalties.pen_value_s": busy["penalties.pen_value"],
        "penalties.pen_subgrad_s": busy["penalties.pen_subgrad"],
        "solver.solves": len(recorder.solves),
        "solver.iters": iters,
        "solver.iters_per_solve_p50": statistics.median(r.iters for r in conv) if conv else 0.0,
        "solver.us_per_iter": busy["solver.solve"] / iters * 1e6 if iters else 0.0,
        "solver.self_s": busy["solver.self"],
        "solver.obj_evals": calls["solver.obj_evals"],
        "solver.accept_ratio": iters / calls["solver.obj_evals"] if calls["solver.obj_evals"] else 0.0,
        "rules.select_s": busy["rules.select"],
        "rules.delta_sequence_s": seq,
        "rules.parallelism": busy["rules.path_cpu"] / seq if seq else 0.0,
        "experiments.write_bundle_s": timings["write_bundle"],
        "experiments.bundle_bytes": sum(Path(p).stat().st_size for p in files),
        "plots.emit_s": timings["emit"],
        "plots.svg_bytes": sum(Path(p).stat().st_size for p in svgs),
        "trace.wall_s": unit_wall,
    }


UNITS = {
    # end to end (--trace 0)
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "solve_cpu_ms_p50": "ms", "solve_cpu_ms_p75": "ms",
    "peak_rss_mb": "MB", "solve_conv_share": "share", "selected_grad_excess": "ratio",
    # per layer (--trace 1)
    "models.apply_calls": "count", "models.apply_us": "us", "models.apply_s": "s",
    "models.adjoint_calls": "count", "models.adjoint_us": "us", "models.adjoint_s": "s",
    "models.apply_per_iter": "ratio", "models.apply_gflops_computed": "GFLOP/s",
    "models.project_calls": "count", "models.project_us": "us",
    "grid.tridiag_calls": "count", "grid.tridiag_us": "us", "grid.tridiag_s": "s",
    "grid.tridiag_per_iter": "ratio", "grid.gridfunction_calls": "count", "grid.gridfunction_per_iter": "ratio",
    "penalties.fid_value_s": "s", "penalties.fid_grad_s": "s", "penalties.pen_value_s": "s",
    "penalties.pen_subgrad_s": "s",
    "solver.solves": "count", "solver.iters": "count", "solver.iters_per_solve_p50": "count",
    "solver.us_per_iter": "us", "solver.self_s": "s", "solver.obj_evals": "count", "solver.accept_ratio": "ratio",
    "solver.converged": "count", "solver.max_iters_hits": "count", "solver.stalls": "count",
    "rules.select_s": "s", "rules.delta_sequence_s": "s", "rules.parallelism": "ratio",
    "experiments.write_bundle_s": "s", "experiments.bundle_bytes": "B", "plots.emit_s": "s", "plots.svg_bytes": "B",
    "trace.wall_s": "s",
}


# ---------------------------------------------------------------------------
# cross-run determinism

def code_fingerprint() -> str:
    """Digest of the package and benchmark sources, so each build keeps its own record."""
    h = hashlib.sha256()
    for path in sorted((SRC / "regupath").glob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()[:16]


def compare_with_earlier_runs(args, record: dict, checks):
    """Counts and output digests must repeat exactly across runs of one build."""
    state_dir = WORK / "state"
    state_dir.mkdir(parents=True, exist_ok=True)
    state = state_dir / f"{args.workload}-noise{args.noise_seed}-blas{args.blas_threads}-{code_fingerprint()}.json"
    earlier = json.loads(state.read_text()) if state.exists() else {}
    for key, value in record.items():
        if key in earlier:
            checks.expect(earlier[key] == value, f"drift: {key} was {earlier[key]!r} in an earlier run, {value!r} now")
    tmp = state.with_suffix(".tmp")
    tmp.write_text(json.dumps({**record, **earlier}, indent=1, sort_keys=True))
    os.replace(tmp, state)


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "regupath" / "__init__.py").is_file():
        print(f"bench: no regupath sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)
    sys.path.insert(0, str(SRC))

    regupath, setup, setup_main = import_and_setup(args)
    if Path(regupath.__file__).resolve().parent != SRC / "regupath":
        print(f"bench: imported regupath from {regupath.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_main))
        return 0

    traced = bool(args.trace)
    setup_times = [setup_main] + ([] if traced else setup_probes(args, SETUP_SAMPLES - 1))
    tracer = Tracer() if traced else None
    recorder = Recorder(tracer)
    checks = Checks()
    walls, cpus, solve_cpus, summaries, layers = [], [], [], [], []
    out = WORK / "out" / args.workload
    start = time.perf_counter()
    while True:
        shutil.rmtree(out, ignore_errors=True)
        recorder.reset()
        files, svgs, timings, payload = [], [], None, None
        with ExitStack() as stack:
            stack.enter_context(recorder.installed(regupath))
            if traced:
                tracer.reset()
                stack.enter_context(tracer.installed(regupath))
            t0 = time.perf_counter()
            c0 = time.process_time()
            try:
                files, svgs, timings, payload = run_unit(regupath, setup, args, tracer, out)
            except regupath.PathAborted as exc:
                print(f"bench: {exc}", file=sys.stderr)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        if traced and payload is not None:
            layers.append(layer_metrics(tracer, recorder, timings, files, svgs, wall))
        walls.append(wall)
        cpus.append(cpu)
        solve_cpus.extend(s.cpu_seconds for s in recorder.solves)
        summaries.append(check_unit(regupath, setup, args, recorder, payload, list(files) + list(svgs), checks))
        if payload is None or time.perf_counter() - start >= args.seconds:
            break

    first = summaries[0]
    for later in summaries[1:]:
        checks.expect(later == first, "units of one run disagree")
    counts = {k: first[k] for k in ("digest", "iters", "converged", "max_iters_hits", "stalls")}
    if traced and layers:
        for key in ("models.apply_calls", "models.adjoint_calls", "models.project_calls", "grid.tridiag_calls",
                    "grid.gridfunction_calls", "solver.obj_evals"):
            counts[key] = layers[0][key]
    if payload is not None:
        compare_with_earlier_runs(args, counts, checks)

    if traced:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]} if layers else {}
        metrics.update({"solver.converged": first["converged"], "solver.max_iters_hits": first["max_iters_hits"],
                        "solver.stalls": first["stalls"]})
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "solve_cpu_ms_p50": statistics.median(solve_cpus) * 1e3 if solve_cpus else 0.0,
            "solve_cpu_ms_p75": statistics.quantiles(solve_cpus, n=4)[2] * 1e3 if len(solve_cpus) > 1 else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "solve_conv_share": first["converged"] / first["attempted"] if first["attempted"] else 0.0,
            "selected_grad_excess": first["selected_grad_excess"],
        }

    report(args, regupath, first, len(walls), len(solve_cpus), checks, metrics)
    result = {
        "correct": not checks.failures,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def report(args, regupath, first, units, solves, checks, metrics):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lapack = scipy.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    print(f"machine: nproc {os.cpu_count()}, python {sys.version.split()[0]}, numpy {np.__version__} "
          f"({blas['name']} {blas['version']}), scipy {scipy.__version__} ({lapack['name']} {lapack['version']}), "
          f"BLAS threads {args.blas_threads} x 1 worker")
    print(f"workload {args.workload}: noise seed {args.noise_seed}, check seed {args.seed}, "
          f"{units} unit(s), {solves} solves timed, trace {args.trace}")
    print(f"  solve_fail_share {first['attempted'] - first['converged']}/{first['attempted']}, "
          f"selected_unconverged {first['selected_unconverged']}/{first['selected']}, "
          f"stops: {first['converged']} converged, {first['max_iters_hits']} max_iters, {first['stalls']} stall, "
          f"{first['iters']} iterations")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:16.6f} {UNITS[name]}")
    print(f"checks: {checks.count - len(checks.failures)}/{checks.count} passed")
    for failure in checks.failures[:20]:
        print(f"  FAILED {failure}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
