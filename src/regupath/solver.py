"""Backtracking gradient descent for Tikhonov functionals and alpha paths."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional

import numpy as np

from .grid import GridFunction, is_integer, is_real, l2_inner, lr_norm, require
from .models import ForwardModel, InadmissibleCoefficientError
from .penalties import Fidelity, Penalty


class DivergenceError(RuntimeError):
    """Objective became non-finite during a solve."""


class PathAborted(RuntimeError):
    """A path solve failed; carries the records computed so far."""

    def __init__(self, message: str, records: list):
        super().__init__(message)
        self.records = records


@dataclass
class SolveOptions:
    """Descent solver configuration.

    The solver runs projected gradient descent with Armijo backtracking.
    The first trial step is ``step_init``; later trial steps come from a
    Barzilai-Borwein estimate, backtracked by ``step_shrink`` until the
    sufficient-decrease condition with constant ``armijo`` holds, so the
    objective is non-increasing across accepted iterations by construction.

    Convergence is declared when the weighted L^2 norm of the objective
    gradient falls below grad_tol relative to its value at the solve's
    initial point, or below the absolute floor grad_tol_abs (if positive).
    """

    max_iters: int = 5000
    grad_tol: float = 1e-8
    grad_tol_abs: float = 0.0
    step_init: float = 1.0
    step_shrink: float = 0.5
    armijo: float = 1e-4
    init: Optional[GridFunction] = None

    def __post_init__(self):
        require(self.problems(self.max_iters, self.grad_tol, self.grad_tol_abs))
        if not self.step_init > 0:
            raise ValueError("step_init must be positive")
        if not 0 < self.step_shrink < 1:
            raise ValueError("step_shrink must lie in (0, 1)")
        if not 0 < self.armijo < 1:
            raise ValueError("armijo constant must lie in (0, 1)")

    @staticmethod
    def problems(max_iters, grad_tol, grad_tol_abs) -> Iterator[str]:
        """Every reason the iteration cap and tolerances make no SolveOptions, each led by its field name."""
        if not (is_integer(max_iters) and max_iters > 0):
            yield f"max_iters must be a positive integer, got {max_iters!r}"
        if not (is_real(grad_tol) and grad_tol > 0):
            yield f"grad_tol must be positive, got {grad_tol!r}"
        if not (is_real(grad_tol_abs) and grad_tol_abs >= 0):
            yield f"grad_tol_abs must be nonnegative, got {grad_tol_abs!r}"


@dataclass(frozen=True, eq=False)
class AlphaPathRecord:
    """Solver output at one regularization parameter."""

    alpha: float
    x: GridFunction
    fx: GridFunction
    residual: float
    penalty: float
    theta: float
    objective: float
    iters: int
    converged: bool


_MIN_STEP = 1e-20


def alpha_grid_problems(alpha0, q, j_max) -> Iterator[str]:
    """Every reason (alpha0, q, j_max) make no parameter grid, each led by its name."""
    if not (is_real(alpha0) and alpha0 > 0):
        yield f"alpha0 must be positive, got {alpha0!r}"
    if not (is_real(q) and 0 < q < 1):
        yield f"q must lie in (0, 1), got {q!r}"
    if not (is_integer(j_max) and j_max >= 0):
        yield f"j_max must be a nonnegative integer, got {j_max!r}"


def solve_tikhonov(
    model: ForwardModel,
    fid: Fidelity,
    pen: Penalty,
    alpha: float,
    opts: Optional[SolveOptions] = None,
) -> AlphaPathRecord:
    """Minimize ||F(x) - data||_r^r + alpha * R(x) by projected descent.

    Returns a stationary-point record; ``converged`` reports whether the
    gradient tolerance was met within max_iters.  A non-finite objective at
    an accepted point raises DivergenceError.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    opts = opts if opts is not None else SolveOptions()
    x = opts.init if opts.init is not None else model.x_grid.zeros()
    if x.grid != model.x_grid:
        raise ValueError("initial guess lives on the wrong grid")
    if not model.domain_check(x):
        raise InadmissibleCoefficientError("initial guess violates the model domain")

    weights = model.x_grid.weights()

    def objective(point: GridFunction):
        fx = model.apply(point)
        return fx, fid.value(fx) + alpha * pen.value(point)

    def gradient(point: GridFunction, fx: GridFunction) -> GridFunction:
        return model.adjoint_derivative(point, fid.gradient(fx)) + alpha * pen.subgradient(point)

    fx, obj = objective(x)
    if not math.isfinite(obj):
        raise DivergenceError(f"objective is non-finite at the initial point (alpha={alpha})")
    g = gradient(x, fx)
    gnorm = math.sqrt(l2_inner(g, g))
    tol = max(opts.grad_tol * gnorm, opts.grad_tol_abs)

    iters = 0
    converged = gnorm <= tol
    trial = opts.step_init
    while iters < opts.max_iters and not converged:
        t = trial
        accepted = False
        while t >= _MIN_STEP:
            cand = x.values - t * g.values
            if model.project is not None:
                cand = model.project(cand)
            if not np.all(np.isfinite(cand)):
                t *= opts.step_shrink
                continue
            x_new = model.x_grid.function(cand)
            fx_new, obj_new = objective(x_new)
            if math.isfinite(obj_new):
                predicted = float(np.sum(weights * g.values * (x.values - cand)))
                if predicted <= 0.0:
                    break  # projection blocked every direction of decrease
                if obj - obj_new >= opts.armijo * predicted:
                    accepted = True
                    break
            t *= opts.step_shrink
        if not accepted:
            break  # no further decrease representable at this precision
        g_new = gradient(x_new, fx_new)
        s = x_new.values - x.values
        d = g_new.values - g.values
        sd = float(np.sum(weights * s * d))
        if sd > 0:
            trial = float(np.sum(weights * s * s)) / sd
            trial = min(max(trial, 1e-14), 1e14)
        else:
            trial = min(t * 2.0, 1e14)
        x, fx, obj, g = x_new, fx_new, obj_new, g_new
        gnorm = math.sqrt(l2_inner(g, g))
        iters += 1
        converged = gnorm <= tol

    residual = lr_norm(fx - fid.target, fid.r)
    return AlphaPathRecord(
        alpha=alpha,
        x=x,
        fx=fx,
        residual=residual,
        penalty=pen.value(x),
        theta=residual**fid.r / alpha,
        objective=obj,
        iters=iters,
        converged=converged,
    )


def compute_alpha_path(
    model: ForwardModel,
    fid: Fidelity,
    pen: Penalty,
    alpha0: float,
    q: float,
    j_max: int,
    opts: Optional[SolveOptions] = None,
    alpha_floor: float = 1e-12,
    residual_power_floor: float = 1e-14,
) -> List[AlphaPathRecord]:
    """Solve along the geometric grid alpha0 * q^j, j = 0..j_max.

    Records come back in decreasing-alpha order; each solve warm-starts from
    the previous minimizer (the first from opts.init, default zero).  The
    grid is truncated early once alpha drops below ``alpha_floor`` or the
    residual satisfies residual^r <= ``residual_power_floor`` (a numerically
    exact data fit).  Solver failures abort the path with the partial record
    list attached to the raised PathAborted.
    """
    require(alpha_grid_problems(alpha0, q, j_max))
    opts = opts if opts is not None else SolveOptions()
    init = opts.init if opts.init is not None else model.x_grid.zeros()

    # Warm-started solves inherit an absolute gradient floor anchored at the
    # path's initial point, so a nearly-converged warm start terminates.
    fx0 = model.apply(init)
    if not math.isfinite(fid.value(fx0) + alpha0 * pen.value(init)):
        raise PathAborted(
            f"path aborted at alpha={alpha0}: objective is non-finite at the initial point", []
        )
    g0 = model.adjoint_derivative(init, fid.gradient(fx0)) + alpha0 * pen.subgradient(init)
    anchor = math.sqrt(l2_inner(g0, g0))
    floor = max(opts.grad_tol * anchor, opts.grad_tol_abs)

    records: List[AlphaPathRecord] = []
    current = init
    for j in range(j_max + 1):
        alpha = alpha0 * q**j
        if alpha < alpha_floor:
            break
        step_opts = replace(opts, init=current, grad_tol_abs=floor)
        try:
            rec = solve_tikhonov(model, fid, pen, alpha, step_opts)
        except (DivergenceError, InadmissibleCoefficientError) as exc:
            raise PathAborted(f"path aborted at alpha={alpha}: {exc}", records) from exc
        records.append(rec)
        current = rec.x
        if rec.residual**fid.r <= residual_power_floor:
            break
    return records
