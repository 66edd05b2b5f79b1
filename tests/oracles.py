"""Independent reference computations used to check the library code.

Everything here recomputes results through a different route than the
implementation under test: dense linear algebra instead of iterative
descent, explicit kernel quadrature instead of the model's cached matrix,
Jacobians assembled from the discrete equations instead of the model's
adjoint action, high-resolution quadrature instead of the working grid, a
sine transform instead of a linear solve.
The transformed index function t**r / phi(t) and its inverse, which only
the tests' bound checks use, live here too, and so does the one-selection
evaluation of the a-posteriori bounds, written from the README's formulas.
"""

import math
from typing import Callable, Optional

import numpy as np
import scipy.fft

from regupath import (AlphaPathRecord, DeltaLevelRow, DivergenceError, Fidelity, ForwardModel, GridFunction,
                      RuleOutcome, SolveOptions, TheoryReport, l2_inner, lr_norm)
from regupath.penalties import Penalty


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


def laplacian_eigenvalues(n: int) -> np.ndarray:
    """lambda_k = (4/h^2) sin^2(k pi / (2(n-1))), k = 1..n-2: the eigenvalues of the interior 3-point Laplacian."""
    h = 1.0 / (n - 1)
    return (4.0 / h**2) * np.sin(np.arange(1, n - 1) * np.pi / (2 * (n - 1))) ** 2


def spectral_tikhonov(y: np.ndarray, alpha: float) -> np.ndarray:
    """Exact minimizer of ||K x - y||_W^2 + alpha ||x||_W^2 for the shipped integral operator on n = y.size nodes.

    K is 40 L^-1 on the interior and 0 in the boundary rows and columns (see
    ``fredholm_model``), so the normal equations read (1600 + alpha L^2) x =
    40 L y inside and x = 0 at the two ends.  The orthonormal DST-I
    diagonalizes L with eigenvalues ``laplacian_eigenvalues(n)``, and in its
    basis x_k = 40 lambda_k y_k / (1600 + alpha lambda_k^2): no linear solve.
    """
    lam = laplacian_eigenvalues(y.size)
    y_hat = scipy.fft.dst(y[1:-1], type=1, norm="ortho")
    x = np.zeros(y.size)
    x[1:-1] = scipy.fft.dst(40.0 * lam * y_hat / (1600.0 + alpha * lam**2), type=1, norm="ortho")
    return x


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


def check_corollary_bounds(
    outcome: RuleOutcome,
    path: list[AlphaPathRecord],
    noise: GridFunction,
    x_dagger: GridFunction,
    pen: Penalty,
    q: float,
    r: float,
    index_fn: Optional[Callable[[float], float]] = None,
) -> TheoryReport:
    """The a-posteriori bounds of one theta-argmin selection from ``path``, as a one-row report.

    Every value is computed here from its formula, with weighted sums taken
    directly on the sample values: delta = ||noise||_r,
    kappa = min(1, min_j residual_j / delta) over the path, the Bregman error
    D = R(x_*) - R(x_dagger) - <xi, x_* - x_dagger> with xi the penalty's
    subgradient at x_dagger, the bound ratio
    D / ((1 + delta^r/delta_*^r) (delta^r + phi(delta + delta_*))) (NaN
    without phi or at delta_* = 0), the alpha lower bound
    q kappa^r delta^r / ((q+1) R(x_dagger)) (0 when R(x_dagger) = 0) and the
    precondition delta^r <= alpha_0 R(x_dagger), alpha_0 the largest alpha of
    the path.  A zero noise input is rejected.
    """
    w = noise.grid.weights()
    delta = float(np.sum(w * np.abs(noise.values) ** r) ** (1.0 / r))
    if delta == 0.0:
        raise ValueError("the bounds are undefined for zero noise")
    kappa = min(1.0, min(rec.residual for rec in path) / delta)
    x, ds = outcome.record.x, outcome.delta_star
    r_dagger = pen.value(x_dagger)
    xi = pen.subgradient(x_dagger).values
    bregman = pen.value(x) - r_dagger - float(np.sum(x_dagger.grid.weights() * xi * (x.values - x_dagger.values)))
    ratio = math.nan
    if index_fn is not None and ds > 0.0:
        ratio = bregman / ((1.0 + delta**r / ds**r) * (delta**r + index_fn(delta + ds)))
    lower_bound = q * kappa**r * delta**r / ((q + 1.0) * r_dagger) if r_dagger > 0 else 0.0
    alpha0 = max(rec.alpha for rec in path)
    row = DeltaLevelRow(delta, outcome.alpha_star, outcome.record.theta, bregman, kappa, ratio)
    return TheoryReport(ds, lower_bound, [row], delta**r <= alpha0 * r_dagger)


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


def phi(index_fn: Callable[[float], float], r: float, t: float) -> float:
    """The transformed index function t -> t**r / phi(t), defined for t > 0."""
    if not t > 0:
        raise ValueError(f"phi is defined for t > 0, got {t}")
    return t**r / index_fn(t)


def phi_inverse(index_fn: Callable[[float], float], r: float, s: float) -> float:
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
