"""Correctness checks on the outputs of one benchmark unit.

Every check recomputes a value through regupath's public objects
(``ForwardModel.apply``, ``Fidelity.value``, the penalty's ``value`` and
``subgradient``) or re-derives a selection from the returned path, and
appends a message to ``Checks.failures`` when the program's own value
disagrees.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from typing import List, NamedTuple

REL_TOL = 1e-12
# Slack on the gradient-tolerance test, so that a last-bit difference between
# the solver's and the benchmark's gradient norm cannot flip the verdict.
TOL_SLACK = 1e-9


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def max_rel_err(a, b) -> float:
    scale = max(float(abs(a).max()), float(abs(b).max()), 1e-300)
    return float(abs(a - b).max()) / scale


class SolveCheck(NamedTuple):
    """What the benchmark recomputed for one alpha solve."""

    converged: bool
    stop: str  # "converged", "max_iters" or "stall"
    grad_ratio: float  # final gradient norm over the solve's tolerance
    ok: bool


class Checks:
    def __init__(self):
        self.count = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.count += 1
        if not ok:
            self.failures.append(message)
        return ok

    def close(self, what: str, got: float, want: float) -> bool:
        err = rel_err(got, want)
        return self.expect(err <= REL_TOL, f"{what}: {got!r} vs recomputed {want!r} (rel {err:.2e})")

    def solve(self, regupath, s) -> SolveCheck:
        """Recompute a record's values and infer why its solve stopped.

        The solver's documented tolerance is ``max(grad_tol * |g(init)|,
        grad_tol_abs)``; ``converged`` must agree with it at the final point.
        A solve that did not converge stopped at ``max_iters`` or stalled.
        """
        rec, model, fid, pen, alpha, opts = s.record, s.model, s.fid, s.pen, s.alpha, s.opts
        tag = f"alpha={alpha:.6g}"
        fx = model.apply(rec.x)
        ok = self.expect(max_rel_err(fx.values, rec.fx.values) <= REL_TOL, f"{tag}: fx differs from F(x)")
        residual = regupath.lr_norm(fx - fid.target, fid.r)
        penalty = pen.value(rec.x)
        ok &= self.close(f"{tag} residual", rec.residual, residual)
        ok &= self.close(f"{tag} penalty", rec.penalty, penalty)
        ok &= self.close(f"{tag} objective", rec.objective, fid.value(fx) + alpha * penalty)
        ok &= self.close(f"{tag} theta", rec.theta, residual**fid.r / alpha)

        def grad_norm(x):
            g = model.adjoint_derivative(x, fid.gradient(model.apply(x))) + alpha * pen.subgradient(x)
            return math.sqrt(regupath.l2_inner(g, g))

        init = opts.init if opts.init is not None else model.x_grid.zeros()
        tol = max(opts.grad_tol * grad_norm(init), opts.grad_tol_abs)
        gnorm = grad_norm(rec.x)
        if rec.converged:
            ok &= self.expect(gnorm <= tol * (1 + TOL_SLACK), f"{tag}: converged with |g|={gnorm:.3e} > tol={tol:.3e}")
            stop = "converged"
        else:
            ok &= self.expect(gnorm > tol * (1 - TOL_SLACK), f"{tag}: unconverged with |g|={gnorm:.3e} <= tol={tol:.3e}")
            stop = "max_iters" if rec.iters == opts.max_iters else "stall"
        ok &= self.expect(rec.iters <= opts.max_iters, f"{tag}: {rec.iters} iterations > max_iters")
        return SolveCheck(rec.converged and ok, stop, gnorm / tol if tol > 0 else math.inf, ok)

    def selection(self, regupath, path, outcome, r: float, delta: float, rng, tag: str):
        """A rule's pick equals the brute-force pick, also on a shuffled path.

        theta-argmin: smallest residual^r / alpha, ties to the larger alpha.
        Discrepancy: largest alpha with residual <= tau * delta, else the
        smallest alpha, flagged ``no_qualifying_alpha``.
        """
        by_alpha = sorted(path, key=lambda rec: -rec.alpha)
        if outcome.rule == "hanke_raus":
            want = by_alpha[0]
            for rec in by_alpha[1:]:
                if rec.residual**r / rec.alpha < want.residual**r / want.alpha:
                    want = rec
            shuffled = regupath.hanke_raus_select(rng.sample(path, len(path)))
        else:
            qualifying = [rec for rec in by_alpha if rec.residual <= outcome.tau * delta]
            want = qualifying[0] if qualifying else by_alpha[-1]
            self.expect(("no_qualifying_alpha" in outcome.flags) == (not qualifying),
                        f"{tag}: no_qualifying_alpha flag is wrong")
            shuffled = regupath.discrepancy_select(rng.sample(path, len(path)), outcome.tau, delta)
        self.expect(outcome.record is want, f"{tag}: selected alpha {outcome.alpha_star!r}, brute force {want.alpha!r}")
        self.expect(shuffled.record is want, f"{tag}: selection changes when the path is shuffled")
        self.expect(outcome.alpha_star == want.alpha and outcome.delta_star == want.residual,
                    f"{tag}: alpha_star/delta_star do not match the selected record")


def digest(paths) -> str:
    """sha256 over the names and bytes of the written files."""
    h = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()
