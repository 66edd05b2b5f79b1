"""Backtracking gradient descent for Tikhonov functionals and alpha paths."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional

import numpy as np

from .grid import GridFunction, is_integer, is_real, lr_norm, require
from .models import ForwardModel, InadmissibleCoefficientError
from .penalties import Fidelity, Penalty


class DivergenceError(RuntimeError):
    """Objective or gradient became non-finite during a solve."""


class PathAborted(RuntimeError):
    """A path solve failed; carries the records computed so far."""

    def __init__(self, message: str, records: list):
        super().__init__(message)
        self.records = records


@dataclass
class SolveOptions:
    """Descent solver configuration.

    The solver runs projected gradient descent with Armijo backtracking.
    The first trial step is the constant ``_STEP_INIT``; later trial steps
    come from a Barzilai-Borwein estimate, backtracked by ``_STEP_SHRINK``
    until the sufficient-decrease condition with constant ``_ARMIJO`` holds,
    so the objective is non-increasing across accepted iterations by
    construction.

    Convergence is declared when the weighted L^2 norm of the objective
    gradient falls below grad_tol relative to its value at the solve's
    initial point, or below the absolute floor grad_tol_abs (if positive).
    """

    max_iters: int = 5000
    grad_tol: float = 1e-8
    grad_tol_abs: float = 0.0
    init: Optional[GridFunction] = None

    def __post_init__(self):
        require(self.problems(self.max_iters, self.grad_tol, self.grad_tol_abs))

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


_STEP_INIT = 1.0  # first trial step of a solve
_STEP_SHRINK = 0.5  # backtracking factor
_ARMIJO = 1e-4  # sufficient-decrease constant
_MIN_STEP = 1e-20

# A path stops once residual^r falls to this floor (a numerically exact data fit).
_RESIDUAL_POWER_FLOOR = 1e-14

# Paths stop before alpha falls below this floor; a grid must start at or above it.
ALPHA_FLOOR = 1e-12


def alpha_grid_problems(alpha0, q, j_max) -> Iterator[str]:
    """Every reason (alpha0, q, j_max) make no parameter grid, each led by its name."""
    if not (is_real(alpha0) and alpha0 > 0):
        yield f"alpha0 must be positive, got {alpha0!r}"
    elif alpha0 < ALPHA_FLOOR:
        yield f"alpha0 must be at least the path floor {ALPHA_FLOOR!r}, got {alpha0!r}"
    if not (is_real(q) and 0 < q < 1):
        yield f"q must lie in (0, 1), got {q!r}"
    if not (is_integer(j_max) and j_max >= 0):
        yield f"j_max must be a nonnegative integer, got {j_max!r}"


def _gradient(model: ForwardModel, fid: Fidelity, pen: Penalty, alpha: float,
              x: GridFunction, fx: GridFunction) -> np.ndarray:
    """The objective's gradient F'(x)* grad fid(F x) + alpha * dR(x), as a plain array."""
    g = model.adjoint_derivative(x, fid.gradient(fx)).values + alpha * pen.subgradient(x).values
    if not np.isfinite(g).all():
        raise DivergenceError(f"gradient is non-finite (alpha={alpha})")
    return g


def _norm(weights: np.ndarray, g: np.ndarray) -> float:
    """Weighted L^2 norm, summed as ``l2_inner`` sums it."""
    return math.sqrt((weights * (g * g)).sum())


@np.errstate(over="ignore")  # an overflowing objective is a DivergenceError, not a numpy warning
def solve_tikhonov(
    model: ForwardModel,
    fid: Fidelity,
    pen: Penalty,
    alpha: float,
    opts: Optional[SolveOptions] = None,
) -> AlphaPathRecord:
    """Minimize ||F(x) - data||_r^r + alpha * R(x) by projected descent.

    Returns a stationary-point record; ``converged`` reports whether the
    gradient tolerance was met within max_iters.  A non-finite objective or
    gradient at an accepted point raises DivergenceError; an initial guess
    outside the model's admissible set raises the model's
    InadmissibleCoefficientError.  Between calls into the model, fidelity
    and penalty, the loop works on plain arrays.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    opts = opts if opts is not None else SolveOptions()
    x_grid = model.x_grid
    x = opts.init if opts.init is not None else x_grid.zeros()
    if x.grid != x_grid:
        raise ValueError("initial guess lives on the wrong grid")

    weights = x_grid.weights()
    project = model.project

    def objective(point: GridFunction):
        fx = model.apply(point)
        return fx, fid.value(fx) + alpha * pen.value(point)

    fx, obj = objective(x)
    if not math.isfinite(obj):
        raise DivergenceError(f"objective is non-finite at the initial point (alpha={alpha})")
    xv = x.values
    g = _gradient(model, fid, pen, alpha, x, fx)
    gnorm = _norm(weights, g)
    tol = max(opts.grad_tol * gnorm, opts.grad_tol_abs)

    iters = 0
    converged = gnorm <= tol
    trial = _STEP_INIT
    while iters < opts.max_iters and not converged:
        t = trial
        accepted = False
        while t >= _MIN_STEP:
            cand = xv - t * g
            if project is not None:
                cand = project(cand)
            if not np.isfinite(cand).all():
                t *= _STEP_SHRINK
                continue
            x_new = GridFunction(x_grid, cand)
            fx_new, obj_new = objective(x_new)
            if math.isfinite(obj_new):
                predicted = float((weights * g * (xv - cand)).sum())
                if predicted <= 0.0:
                    break  # projection blocked every direction of decrease
                if obj - obj_new >= _ARMIJO * predicted:
                    accepted = True
                    break
            t *= _STEP_SHRINK
        if not accepted:
            break  # no further decrease representable at this precision
        g_new = _gradient(model, fid, pen, alpha, x_new, fx_new)
        xv_new = x_new.values
        s = xv_new - xv
        d = g_new - g
        sd = float((weights * s * d).sum())
        if sd > 0:
            trial = float((weights * s * s).sum()) / sd
            trial = min(max(trial, 1e-14), 1e14)
        else:
            trial = min(t * 2.0, 1e14)
        x, xv, fx, obj, g = x_new, xv_new, fx_new, obj_new, g_new
        gnorm = _norm(weights, g)
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
) -> List[AlphaPathRecord]:
    """Solve along the geometric grid alpha0 * q^j, j = 0..j_max.

    Records come back in decreasing-alpha order; each solve warm-starts from
    the previous minimizer (the first from opts.init, default zero).  The
    grid is truncated early once alpha drops below ``ALPHA_FLOOR`` or the
    residual satisfies residual^r <= ``_RESIDUAL_POWER_FLOOR`` (a numerically
    exact data fit).  Solver failures abort the path with the partial record
    list attached to the raised PathAborted; a non-finite objective or
    gradient at the initial point aborts it with no records.
    """
    require(alpha_grid_problems(alpha0, q, j_max))
    opts = opts if opts is not None else SolveOptions()
    init = opts.init if opts.init is not None else model.x_grid.zeros()

    # Warm-started solves inherit an absolute gradient floor anchored at the
    # path's initial point, so a nearly-converged warm start terminates.
    with np.errstate(over="ignore"):
        fx0 = model.apply(init)
        try:
            if not math.isfinite(fid.value(fx0) + alpha0 * pen.value(init)):
                raise DivergenceError("objective is non-finite at the initial point")
            anchor = _norm(model.x_grid.weights(), _gradient(model, fid, pen, alpha0, init, fx0))
        except DivergenceError as exc:
            raise PathAborted(f"path aborted at alpha={alpha0}: {exc}", []) from exc
    floor = max(opts.grad_tol * anchor, opts.grad_tol_abs)

    records: List[AlphaPathRecord] = []
    current = init
    for j in range(j_max + 1):
        alpha = alpha0 * q**j
        if alpha < ALPHA_FLOOR:
            break
        step_opts = replace(opts, init=current, grad_tol_abs=floor)
        try:
            rec = solve_tikhonov(model, fid, pen, alpha, step_opts)
        except (DivergenceError, InadmissibleCoefficientError) as exc:
            raise PathAborted(f"path aborted at alpha={alpha}: {exc}", records) from exc
        records.append(rec)
        current = rec.x
        if rec.residual**fid.r <= _RESIDUAL_POWER_FLOOR:
            break
    return records
