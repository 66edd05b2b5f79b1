"""Independent reference computations used to check the library code.

Everything here recomputes results through a different route than the
implementation under test: dense linear algebra instead of iterative
descent, explicit kernel quadrature instead of the model's cached matrix,
high-resolution quadrature instead of the working grid.
"""

import numpy as np

from regupath import lr_norm


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


def fredholm_kernel_matrix(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Kernel values and trapezoid weights for the shipped integral operator."""
    t = np.linspace(0.0, 1.0, n)
    s = t[:, None]
    u = t[None, :]
    kernel = np.where(s <= u, 40.0 * s * (1.0 - u), 40.0 * u * (1.0 - s))
    return kernel, trapezoid_weights(n)


def fredholm_apply_matrix(n: int) -> np.ndarray:
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
