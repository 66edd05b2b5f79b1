"""Projected Gauss-Newton and gradient descent for Tikhonov functionals, and alpha paths."""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .grid import (Grid, GridFunction, GridMismatchError, SingularSystemError, is_integer, is_real, lr_root, require,
                   weighted_inner)
from .models import ForwardModel, gauss_newton_step
from .penalties import Fidelity, Penalty


class DivergenceError(RuntimeError):
    """Objective or gradient became non-finite during a solve."""


class PathAborted(RuntimeError):
    """A path solve failed; carries its records so far and, in ``partial``,
    the caller's result over the paths that finished before it, or None."""

    def __init__(self, message: str, records: list, partial=None):
        super().__init__(message)
        self.records = records
        self.partial = partial


@dataclass
class SolveOptions:
    """Solver configuration.

    An r = 2 misfit on a model with a ``jacobian`` (both shipped models)
    takes projected Gauss-Newton steps; every other problem, such as
    an r = 1.01 misfit, takes projected gradient descent steps.  Either way
    each step is backtracked by ``_STEP_SHRINK`` along the projection arc
    until the sufficient-decrease condition with constant ``_ARMIJO`` holds,
    so the objective is non-increasing across accepted iterations by
    construction, and ``max_iters`` caps the number of accepted steps.  A
    trial point that is non-finite, or that does not decrease the linear
    model, is rejected without evaluating the model there.  A
    Gauss-Newton step starts at the full step 1; the first descent step is
    the constant ``_STEP_INIT`` and later ones come from a Barzilai-Borwein
    estimate.

    Convergence is declared when the weighted L^2 norm of the objective
    gradient is at most tol = max(grad_tol * |g(init)|, grad_tol_abs), the
    tolerance each record reports: finite, as grad_tol < 1 and a norm that
    is not finite is a DivergenceError.

    ``init`` is the start point, zero by default; see solve_tikhonov for a
    start that is the last solve's record x.
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
        if not (is_real(grad_tol) and 0 < grad_tol < 1):
            yield f"grad_tol must lie in (0, 1), got {grad_tol!r}"
        if not (is_real(grad_tol_abs) and grad_tol_abs >= 0):
            yield f"grad_tol_abs must be nonnegative, got {grad_tol_abs!r}"


@dataclass(frozen=True, eq=False)
class AlphaPathRecord:
    """Solver output at one regularization parameter; ``tol`` is the tolerance its solve tested."""

    alpha: float
    x: GridFunction
    fx: GridFunction
    residual: float
    penalty: float
    theta: float
    objective: float
    iters: int
    converged: bool
    tol: float


_STEP_INIT = 1.0  # first trial step of a descent solve
_STEP_SHRINK = 0.5  # backtracking factor
_ARMIJO = 1e-4  # sufficient-decrease constant
_MIN_STEP = 1e-20

# Bertsekas' epsilon-active set never reaches further from the bound than this.
_ACTIVE_EPS = 1e-3

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


def _gradient_parts(adjoint_values, fid: Fidelity, pen: Penalty, grid: Grid,
                    xv: np.ndarray, fxv: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The gradient's two alpha-free parts F'(x)* grad fid(F x) and dR(x) at the samples xv of x."""
    return adjoint_values(xv, fid.gradient_on(fxv)), pen.subgradient_on(grid, xv)


def _gradient(adj: np.ndarray, sub: np.ndarray, alpha: float, weights: np.ndarray) -> Tuple[np.ndarray, float]:
    """The objective's gradient g = adj + alpha * sub from its alpha-free parts, and its weighted L^2 norm.

    A norm that is not finite, from a g that is not or a square sum that overflows, raises DivergenceError.
    """
    g = adj + alpha * sub
    gnorm = math.sqrt(weighted_inner(weights, g, g))
    if not math.isfinite(gnorm):
        raise DivergenceError(f"gradient is non-finite (alpha={alpha})")
    return g, gnorm


# The last solve's end point and its alpha-free values there:
# (x, model, fid, pen, F x, misfit, R(x), adj, sub), x the record's own x
# and model, fid and pen held by weak references, so the memo keeps no model
# or data alive after a standalone solve.  Keyed on object identity, so a
# copy of x merely misses, and a dead object, whose reference returns None,
# cannot match.  The tuple is replaced whole and read once, so concurrent
# solves may miss but never mix two points' values.  compute_alpha_path
# clears it when it ends, so nothing of a path outlives it.
_NO_END = (None,) * 9
_last_end = _NO_END


def _gauss_newton_direction(model: ForwardModel, pen: Penalty, alpha: float, xv: np.ndarray,
                            g: np.ndarray, weighted_g: np.ndarray) -> np.ndarray:
    """The projected Gauss-Newton direction d at the samples xv; the step goes to P(xv - t d).

    Following Bertsekas (1982), a coordinate is active when it lies within
    min(_ACTIVE_EPS, |x - P(x - g)|_inf) of the bound 0 of the model's
    projection (the nonnegative set) and its gradient component is positive.  Free coordinates take the Gauss-Newton step of
    the free block, active ones the gradient step scaled by the penalty
    Hessian's diagonal, and a singular system falls back to d = g.  The
    system's right-hand side ``weighted_g`` is W g, W the x grid's weights.
    A model without a projection has no bound, and its ``free`` is None.
    """
    diag, sub = pen.hessian(model.x_grid, xv)
    diag, sub = alpha * diag, alpha * sub
    free = None
    if model.project is not None:
        eps = min(_ACTIVE_EPS, float(np.abs(xv - model.project(xv - g)).max()))
        free = (xv > eps) | (g <= 0.0)
        sub = sub * (free[1:] & free[:-1])
    try:
        return gauss_newton_step(model.jacobian(xv), free, diag, sub, weighted_g)
    except SingularSystemError:
        return g


# An overflowing objective or gradient norm is a DivergenceError, and a non-finite
# trial point, whose predicted decrease may meet 0 * inf, a rejected trial: not numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def solve_tikhonov(
    model: ForwardModel,
    fid: Fidelity,
    pen: Penalty,
    alpha: float,
    opts: Optional[SolveOptions] = None,
) -> AlphaPathRecord:
    """Minimize ||F(x) - data||_r^r + alpha * R(x) by projected Gauss-Newton or descent.

    See SolveOptions for which problems take which method.  Returns a
    stationary-point record; ``converged`` reports whether the gradient
    tolerance was met within max_iters.  A non-finite objective (an overflowing
    F x included) at the start, or a gradient norm that is not finite at any
    iterate, raises DivergenceError; a trial point with a non-finite objective
    is backtracked from; an initial guess outside the model's admissible set
    raises the model's InadmissibleCoefficientError.  The loop runs on raw
    sample arrays through the model maps' ``on_values`` and the array forms of
    the misfit and penalty, and the record takes over its arrays: its x and fx
    are the loop's last iterate and model output themselves, made read-only,
    not copies (a solve that takes no step keeps the start's x).

    A start that is the record x of the last solve, with the same model,
    fid and pen objects, takes F x, the misfit, R(x) and the gradient's
    alpha-free parts F'(x)* grad fid(F x) and dR(x) from that solve instead
    of evaluating them again; the record is bit for bit the one a solve from
    a copy of x returns.  That memo holds the model, fid and pen by weak
    references: once the caller drops them they are freed, and only the end
    point's O(n) arrays stay until the next solve.
    """
    global _last_end
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    opts = opts if opts is not None else SolveOptions()
    x_grid = model.x_grid
    x = opts.init if opts.init is not None else x_grid.zeros()
    if x.grid is not x_grid and x.grid != x_grid:
        raise ValueError("initial guess lives on the wrong grid")
    if fid.target.grid is not model.y_grid and fid.target.grid != model.y_grid:
        raise GridMismatchError(f"misfit target lives on {fid.target.grid}, the model maps to {model.y_grid}")

    weights = x_grid.weights()
    project = model.project
    apply_values, adjoint_values = model.apply.on_values, model.adjoint_derivative.on_values
    xv = x.values
    end_x, end_model, end_fid, end_pen, *end_parts = _last_end
    # end_x is None only while the memo is clear, and x never is
    warm = x is end_x and model is end_model() and fid is end_fid() and pen is end_pen()
    if warm:
        fxv, misfit, pen_value, adj, sub = end_parts
    else:
        fxv = apply_values(xv)
        pen_value = pen.value(x)  # ``value`` checks a reference function's grid
        misfit = fid.value_on(fxv)
    obj = misfit + alpha * pen_value
    if not math.isfinite(obj):
        raise DivergenceError(f"objective is non-finite at the initial point (alpha={alpha})")
    if not warm:
        adj, sub = _gradient_parts(adjoint_values, fid, pen, x_grid, xv, fxv)
    g, gnorm = _gradient(adj, sub, alpha, weights)
    tol = max(opts.grad_tol * gnorm, opts.grad_tol_abs)

    gauss_newton = fid.r == 2.0 and model.jacobian is not None
    iters = 0
    converged = gnorm <= tol
    trial = _STEP_INIT
    while iters < opts.max_iters and not converged:
        weighted_g = weights * g
        if gauss_newton:
            direction, t = _gauss_newton_direction(model, pen, alpha, xv, g, weighted_g), 1.0
        else:
            direction, t = g, trial
        while t >= _MIN_STEP:
            cand = xv - t * direction
            if project is not None:
                cand = project(cand)
            # A trial that does not decrease the linear model is rejected
            # unevaluated, and so is a non-finite one: xv and weighted_g are
            # finite and the weights positive, so its predicted is inf or nan.
            predicted = float(np.add.reduce(weighted_g * (xv - cand)))
            if 0.0 < predicted < math.inf:
                fx_new = apply_values(cand)
                pen_new = pen.value_on(x_grid, cand)
                misfit_new = fid.value_on(fx_new)
                obj_new = misfit_new + alpha * pen_new
                if math.isfinite(obj_new) and obj - obj_new >= _ARMIJO * predicted:
                    break
            t *= _STEP_SHRINK
        else:
            break  # no decrease along the arc: below float precision, or the projection blocks it
        adj_new, sub_new = _gradient_parts(adjoint_values, fid, pen, x_grid, cand, fx_new)
        g_new, gnorm = _gradient(adj_new, sub_new, alpha, weights)
        if not gauss_newton:  # the Barzilai-Borwein quotient is the next descent step's first trial
            s = cand - xv
            weighted_s = weights * s
            sd = float(np.add.reduce(weighted_s * (g_new - g)))
            if sd > 0:
                trial = float(np.add.reduce(weighted_s * s)) / sd
                trial = min(max(trial, 1e-14), 1e14)
            else:
                trial = min(t * 2.0, 1e14)
        xv, fxv, misfit, obj, pen_value, g = cand, fx_new, misfit_new, obj_new, pen_new, g_new
        adj, sub = adj_new, sub_new
        iters += 1
        converged = gnorm <= tol

    if iters:  # xv is finite: a non-finite trial has a non-finite predicted
        x = GridFunction._adopt(x_grid, xv)
    _last_end = (x, weakref.ref(model), weakref.ref(fid), weakref.ref(pen), fxv, misfit, pen_value, adj, sub)
    residual = lr_root(misfit, fid.r)
    return AlphaPathRecord(
        alpha=alpha,
        x=x,
        fx=GridFunction._adopt(model.y_grid, fxv),  # finite, as the objective is: r > 1, weights > 0
        residual=residual,
        penalty=pen_value,
        theta=residual**fid.r / alpha,
        objective=obj,
        iters=iters,
        converged=converged,
        tol=tol,
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

    Records come back in decreasing-alpha order.  The first solve runs with
    ``opts`` (from opts.init, default zero); each later one warm-starts from
    the previous minimizer with the first record's ``tol`` as its absolute
    floor grad_tol_abs, so that a nearly-converged warm start terminates.
    A warm start reuses the previous solve's evaluation of its minimizer, so
    only the first start point is evaluated; that memo is cleared when the
    path returns or raises.
    The grid is truncated early once alpha drops below ``ALPHA_FLOOR`` or
    residual^r <= ``_RESIDUAL_POWER_FLOOR`` (a numerically exact data fit).
    A DivergenceError aborts the path with the partial record list attached
    to the raised PathAborted (no records if the first solve fails); an
    inadmissible opts.init raises the model's InadmissibleCoefficientError.
    """
    global _last_end
    require(alpha_grid_problems(alpha0, q, j_max))
    opts = opts if opts is not None else SolveOptions()
    records: List[AlphaPathRecord] = []
    try:
        for j in range(j_max + 1):
            alpha = alpha0 * q**j
            if alpha < ALPHA_FLOOR:
                break
            step_opts = replace(opts, init=records[-1].x, grad_tol_abs=records[0].tol) if records else opts
            try:
                rec = solve_tikhonov(model, fid, pen, alpha, step_opts)
            except DivergenceError as exc:
                raise PathAborted(f"path aborted at alpha={alpha}: {exc}", records) from exc
            records.append(rec)
            if rec.residual**fid.r <= _RESIDUAL_POWER_FLOOR:
                break
    finally:
        _last_end = _NO_END
    return records
