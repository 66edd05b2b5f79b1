"""Shims around the calls into regupath's modules, owned by the benchmark.

Two layers of shims exist:

* ``Recorder`` is installed on every run.  It wraps ``solve_tikhonov`` (one
  thread-CPU-time pair per alpha solve) and ``compute_alpha_path``, and
  keeps each solve's arguments and record and each path's records so the
  correctness checks can recompute them.  Its cost is a few microseconds per
  solve, on solves that take milliseconds.
* ``Tracer`` is installed only on traced runs.  It wraps the forward-model
  callables, the tridiagonal solve, the fidelity and penalty methods and the
  selection rules in counting ``perf_counter`` spans, and counts
  ``GridFunction`` constructions without timing them (timing each one would
  add about a third to the elliptic workload and distort the split).

Statistics are kept per thread and summed on read, so a run whose paths
use worker threads neither loses counts nor needs a lock on the hot path.
Every patch is undone when its ``installed()`` block exits.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import Any, List, NamedTuple

# Model and penalty spans are disjoint and cover the solver's calls out of
# its own module; the solver's self time is its span minus these.  The
# tridiagonal solve runs inside the model spans, so it is not a leaf here.
LEAF_LAYERS = ("models.", "penalties.")


@contextmanager
def patched(owner, name: str, value):
    """Set ``owner.name = value`` for the duration of the block."""
    old = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, old)


class Solve(NamedTuple):
    """One alpha solve as the solver saw it, with its thread CPU time."""

    model: Any
    fid: Any
    pen: Any
    alpha: float
    opts: Any
    record: Any
    cpu_seconds: float


class PathCall(NamedTuple):
    """One call of ``compute_alpha_path``; ``records`` is partial if it aborted."""

    fid: Any
    pen: Any
    j_max: int
    records: list
    aborted: bool


class Recorder:
    """Per-solve and per-path capture, on for traced and untraced runs."""

    def __init__(self, tracer: "Tracer | None" = None):
        self.tracer = tracer
        self.solves: List[Solve] = []
        self.paths: List[PathCall] = []

    def reset(self):
        self.solves = []
        self.paths = []

    @contextmanager
    def installed(self, regupath):
        solver, rules, experiments = regupath.solver, regupath.rules, regupath.experiments
        path_shim = self._path_shim(solver.compute_alpha_path, regupath.PathAborted)
        with ExitStack() as stack:
            stack.enter_context(patched(solver, "solve_tikhonov", self._solve_shim(solver.solve_tikhonov)))
            stack.enter_context(patched(rules, "compute_alpha_path", path_shim))
            stack.enter_context(patched(experiments, "compute_alpha_path", path_shim))
            yield self

    def _solve_shim(self, solve):
        clock = time.perf_counter
        tracer = self.tracer

        @functools.wraps(solve)
        def shim(model, fid, pen, alpha, opts=None):
            if tracer is not None:
                stats = tracer.stats()
                leaf0, evals0 = stats.leaf, stats.calls["penalties.fid_value"]
            cpu0 = time.thread_time()
            t0 = clock()
            rec = solve(model, fid, pen, alpha, opts)
            dt = clock() - t0
            cpu = time.thread_time() - cpu0
            if tracer is not None:
                stats.calls["solver.obj_evals"] += stats.calls["penalties.fid_value"] - evals0
                stats.busy["solver.solve"] += dt
                stats.busy["solver.self"] += dt - (stats.leaf - leaf0)
            self.solves.append(Solve(model, fid, pen, alpha, opts, rec, cpu))
            return rec

        return shim

    def _path_shim(self, compute_path, path_aborted):
        tracer = self.tracer

        @functools.wraps(compute_path)
        def shim(model, fid, pen, alpha0, q, j_max, *args, **kwargs):
            cpu0 = time.thread_time()
            try:
                records = compute_path(model, fid, pen, alpha0, q, j_max, *args, **kwargs)
            except path_aborted as exc:
                self.paths.append(PathCall(fid, pen, j_max, list(exc.records), True))
                raise
            if tracer is not None:
                # CPU time of this thread, so that waiting for the GIL is not counted as busy
                tracer.stats().busy["rules.path_cpu"] += time.thread_time() - cpu0
            self.paths.append(PathCall(fid, pen, j_max, records, False))
            return records

        return shim


class _ThreadStats:
    __slots__ = ("calls", "busy", "leaf")

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.leaf = 0.0


class Tracer:
    """Counting and timing spans at the boundaries of regupath's modules."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._all: List[_ThreadStats] = []

    def stats(self) -> _ThreadStats:
        stats = getattr(self._local, "stats", None)
        if stats is None:
            stats = self._local.stats = _ThreadStats()
            with self._lock:
                self._all.append(stats)
        return stats

    def reset(self):
        with self._lock:
            for stats in self._all:
                stats.calls.clear()
                stats.busy.clear()
                stats.leaf = 0.0

    def totals(self):
        """(calls, busy seconds) summed over every thread, keyed by span name."""
        calls, busy = defaultdict(int), defaultdict(float)
        with self._lock:
            for stats in self._all:
                for key, n in stats.calls.items():
                    calls[key] += n
                for key, s in stats.busy.items():
                    busy[key] += s
        return calls, busy

    def span(self, key: str, fn):
        """Wrap ``fn`` in a counted ``perf_counter`` span named ``key``."""
        clock = time.perf_counter
        stats_of = self.stats
        leaf = key.startswith(LEAF_LAYERS)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stats = stats_of()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats.calls[key] += 1
                stats.busy[key] += dt
                if leaf:
                    stats.leaf += dt

        return shim

    def counted(self, key: str, fn):
        """Wrap ``fn`` so that its calls are counted but not timed."""
        stats_of = self.stats

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stats_of().calls[key] += 1
            return fn(*args, **kwargs)

        return shim

    def wrap_model(self, model):
        """A copy of a ForwardModel whose solver-facing callables are spanned."""
        project = model.project
        return dataclasses.replace(
            model,
            apply=self.span("models.apply", model.apply),
            adjoint_derivative=self.span("models.adjoint", model.adjoint_derivative),
            project=None if project is None else self.span("models.project", project),
        )

    def _model_factory(self, factory):
        @functools.wraps(factory)
        def shim(*args, **kwargs):
            return self.wrap_model(factory(*args, **kwargs))

        return shim

    @contextmanager
    def installed(self, regupath):
        models, rules, experiments = regupath.models, regupath.rules, regupath.experiments
        patches = [
            (experiments, "fredholm_model", self._model_factory(experiments.fredholm_model)),
            (experiments, "elliptic_model", self._model_factory(experiments.elliptic_model)),
            (models, "solve_tridiagonal", self.span("grid.tridiag", models.solve_tridiagonal)),
            (regupath.GridFunction, "__post_init__",
             self.counted("grid.gridfunction", regupath.GridFunction.__post_init__)),
            (regupath.Fidelity, "value", self.span("penalties.fid_value", regupath.Fidelity.value)),
            (regupath.Fidelity, "gradient", self.span("penalties.fid_grad", regupath.Fidelity.gradient)),
            (rules, "hanke_raus_select", self.span("rules.select", rules.hanke_raus_select)),
            (experiments, "hanke_raus_select", self.span("rules.select", experiments.hanke_raus_select)),
            (experiments, "discrepancy_select", self.span("rules.select", experiments.discrepancy_select)),
        ]
        for cls in (regupath.QuadraticPenalty, regupath.ShiftedQuadraticPenalty, regupath.SmoothedTVPenalty):
            patches.append((cls, "value", self.span("penalties.pen_value", cls.value)))
            patches.append((cls, "subgradient", self.span("penalties.pen_subgrad", cls.subgradient)))
        with ExitStack() as stack:
            for owner, name, value in patches:
                stack.enter_context(patched(owner, name, value))
            yield self
