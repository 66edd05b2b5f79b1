"""Independent reference computations used to check the library code.

Everything here recomputes results through a different route than the
implementation under test: dense linear algebra instead of iterative
descent, explicit kernel quadrature instead of the model's cached matrix,
Jacobians assembled from the discrete equations instead of the model's
adjoint action, high-resolution quadrature instead of the working grid.
The transformed index function t**r / phi(t) and its inverse, which only
the tests' bound checks use, live here too.
"""

import math
from typing import Optional

import numpy as np

from regupath import (AlphaPathRecord, DivergenceError, Fidelity, ForwardModel, GridFunction,
                      SolveOptions, l2_inner, lr_norm)
from regupath.penalties import IndexFunction, Penalty


def trapezoid_weights(n: int, a: float = 0.0, b: float = 1.0) -> np.ndarray:
    h = (b - a) / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def highres_lr_norm(fn, r: float, n: int = 100_000, a: float = 0.0, b: float = 1.0) -> float:
    """Reference L^r norm of a callable via fine trapezoid quadrature."""
    t = np.linspace(a, b, n)
    w = trapezoid_weights(n, a, b)
    return float(np.sum(w * np.abs(fn(t)) ** r) ** (1.0 / r))


def dense_tridiagonal(sub, diag, sup) -> np.ndarray:
    n = len(diag)
    m = np.zeros((n, n))
    m[np.arange(n), np.arange(n)] = diag
    if n > 1:
        m[np.arange(1, n), np.arange(n - 1)] = sub
        m[np.arange(n - 1), np.arange(1, n)] = sup
    return m


def elliptic_jacobian(model: ForwardModel, c: GridFunction) -> np.ndarray:
    """F'(c) of the shipped elliptic model as a dense matrix on the raw sample values.

    Differentiating A(c) u = b with A(c) = tridiag(-1/h^2, 2/h^2 + c_interior,
    -1/h^2) gives J = -A(c)^{-1} diag(u) on the interior coefficients and zero
    columns at the two boundary nodes.  Only the state u = F(c) comes from the
    model; the matrix is assembled and inverted densely here.
    """
    N = model.x_grid.n - 1
    h = 1.0 / N
    u = model.apply(c).values
    off = np.full(N - 2, -1.0 / h**2)
    a = dense_tridiagonal(off, 2.0 / h**2 + c.values[1:-1], off)
    jac = np.zeros((N - 1, N + 1))
    jac[:, 1:-1] = -np.linalg.solve(a, np.diag(u))
    return jac


def gauss_newton_matrix(model: ForwardModel, jac: np.ndarray, free: np.ndarray, diag: np.ndarray,
                        sub: np.ndarray) -> np.ndarray:
    """The dense matrix 2 (J D_f)^T W_y (J D_f) + B, J = ``jac``."""
    jf = jac * free
    return 2.0 * jf.T @ np.diag(model.y_grid.weights()) @ jf + dense_tridiagonal(sub, diag, sub)


def dense_gauss_newton(model: ForwardModel, jac: np.ndarray, free: np.ndarray, diag: np.ndarray,
                       sub: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (2 (J D_f)^T W_y (J D_f) + B) s = rhs with dense matrices, J = ``jac``."""
    return np.linalg.solve(gauss_newton_matrix(model, jac, free, diag, sub), rhs)


def fredholm_kernel_matrix(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Kernel values and trapezoid weights for the shipped integral operator."""
    t = np.linspace(0.0, 1.0, n)
    s = t[:, None]
    u = t[None, :]
    kernel = np.where(s <= u, 40.0 * s * (1.0 - u), 40.0 * u * (1.0 - s))
    return kernel, trapezoid_weights(n)


def fredholm_apply_matrix(n: int) -> np.ndarray:
    """The shipped integral operator as a matrix, which is also its Jacobian F'(x) at every x."""
    kernel, w = fredholm_kernel_matrix(n)
    return kernel * w[None, :]


def tikhonov_normal_equations(
    apply_mat: np.ndarray, weights: np.ndarray, data: np.ndarray, alpha: float,
    c0: np.ndarray | None = None,
) -> np.ndarray:
    """Exact minimizer of ||Mx - data||_2^2 + alpha ||x - c0||_2^2 (weighted norms)."""
    W = np.diag(weights)
    lhs = apply_mat.T @ W @ apply_mat + alpha * W
    rhs = apply_mat.T @ W @ data
    if c0 is not None:
        rhs = rhs + alpha * (W @ c0)
    return np.linalg.solve(lhs, rhs)


def oracle_theta_table(
    apply_mat: np.ndarray, weights: np.ndarray, data: np.ndarray,
    alphas, r: float = 2.0,
) -> list[tuple[float, float, float]]:
    """(alpha, residual, theta) rows from exact dense minimizers."""
    rows = []
    for alpha in alphas:
        x = tikhonov_normal_equations(apply_mat, weights, data, alpha)
        resid_vec = apply_mat @ x - data
        residual = float(np.sum(weights * np.abs(resid_vec) ** r) ** (1.0 / r))
        rows.append((float(alpha), residual, residual**r / alpha))
    return rows


def estimate_kappa(noise, candidates, norm_exponent: float = 2.0) -> float:
    """Empirical lower-bound estimate of the noise irregularity constant.

    Returns min over the candidate residual images v (and v = 0) of
    ||noise - v|| / ||noise||, capped at 1, by direct norm evaluation.  A zero
    noise input is rejected.
    """
    delta = lr_norm(noise, norm_exponent)
    if delta == 0.0:
        raise ValueError("kappa is undefined for zero noise")
    best = 1.0
    for v in candidates:
        best = min(best, lr_norm(noise - v, norm_exponent) / delta)
    return best


def directional_derivative(value_fn, x_vals: np.ndarray, direction: np.ndarray, step: float) -> float:
    """Central finite difference of a scalar functional along a direction."""
    return (value_fn(x_vals + step * direction) - value_fn(x_vals - step * direction)) / (2.0 * step)


_MIN_STEP = 1e-20


# The descent loop as it was written on GridFunctions, before the solver moved
# onto plain arrays; kept verbatim so the array loop can be held to its bits.
# The first step 1.0, the backtracking factor 0.5 and the Armijo constant 1e-4
# are literals here, not the solver's constants, so the reference stays apart.
def reference_solve_tikhonov(
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
    trial = 1.0
    while iters < opts.max_iters and not converged:
        t = trial
        accepted = False
        while t >= _MIN_STEP:
            cand = x.values - t * g.values
            if model.project is not None:
                cand = model.project(cand)
            if not np.all(np.isfinite(cand)):
                t *= 0.5
                continue
            x_new = model.x_grid.function(cand)
            fx_new, obj_new = objective(x_new)
            if math.isfinite(obj_new):
                predicted = float(np.sum(weights * g.values * (x.values - cand)))
                if predicted <= 0.0:
                    break  # projection blocked every direction of decrease
                if obj - obj_new >= 1e-4 * predicted:
                    accepted = True
                    break
            t *= 0.5
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
        tol=tol,
    )


def phi(index_fn: IndexFunction, r: float, t: float) -> float:
    """The transformed index function t -> t**r / phi(t), defined for t > 0."""
    if not t > 0:
        raise ValueError(f"phi is defined for t > 0, got {t}")
    return t**r / index_fn(t)


def phi_inverse(index_fn: IndexFunction, r: float, s: float) -> float:
    """Invert t -> t**r/phi(t) by bracketing bisection, to a relative tolerance of 1e-10.

    The bracket is grown geometrically from t = 1; more than 1000 doublings
    (or halvings) without enclosing s raises a ValueError.
    """
    if not s > 0:
        raise ValueError(f"phi_inverse is defined for s > 0, got {s}")
    lo = hi = 1.0
    val = phi(index_fn, r, 1.0)
    if val < s:
        for _ in range(1000):
            lo, hi = hi, hi * 2.0
            if phi(index_fn, r, hi) >= s:
                break
        else:
            raise ValueError(f"phi_inverse bracket grew past 2^1000 without reaching {s}")
    elif val > s:
        for _ in range(1000):
            hi, lo = lo, lo / 2.0
            if phi(index_fn, r, lo) <= s:
                break
        else:
            raise ValueError(f"phi_inverse bracket shrank past 2^-1000 without reaching {s}")
    else:
        return 1.0
    mid = 0.5 * (lo + hi)
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        val = phi(index_fn, r, mid)
        if abs(val - s) <= 1e-10 * s:
            return mid
        if val < s:
            lo = mid
        else:
            hi = mid
    raise ArithmeticError("phi_inverse bisection failed to meet its tolerance")
