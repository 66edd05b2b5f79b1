"""Forward operators (integral equation and elliptic coefficient problem) and noise."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

import numpy as np
from scipy.linalg.lapack import dgbsv, dpbsv

from .grid import Grid, GridFunction, SingularSystemError, is_integer, is_real, lr_norm, require, solve_tridiagonal


class InadmissibleCoefficientError(ValueError):
    """Coefficient outside the operator's admissible domain."""


class NoiseOverflowError(ValueError):
    """Noisy data beyond the float range."""


class GridMap:
    """A map of grid functions that is one wrapper over its array form.

    ``GridMap(on_values, out_grid, *in_grids)`` called on grid functions
    f_1, ..., f_k checks that each f_i lives on ``in_grids[i]`` and returns
    ``on_values(f_1.values, ..., f_k.values)`` as a function on ``out_grid``.
    The solver calls ``on_values`` on raw arrays and never builds the
    GridFunctions; ``on_values`` returns a plain array and, unlike the call,
    lets a non-finite output through.
    """

    def __init__(self, on_values: Callable[..., np.ndarray], out_grid: Grid, *in_grids: Grid):
        self.on_values = on_values
        self.out_grid = out_grid
        self.in_grids = in_grids

    def __call__(self, *args: GridFunction) -> GridFunction:
        for k, (arg, grid) in enumerate(zip(args, self.in_grids)):
            if arg.grid != grid:
                raise ValueError(f"argument {k} lives on {arg.grid}, not on {grid}")
        return self.out_grid.function(self.on_values(*(arg.values for arg in args)))


@dataclass(frozen=True, eq=False)
class ForwardModel:
    """Operator contract: F, the adjoint action F'(x)* and a Gauss-Newton solve.

    ``apply`` and ``adjoint_derivative`` are GridMaps (or wrappers that carry
    a GridMap's ``on_values``, ``out_grid`` and ``in_grids``), and
    construction raises TypeError for one without ``on_values``.  ``apply``
    maps x_grid functions to y_grid functions, and the two grids are read
    from it; it raises InadmissibleCoefficientError outside the model's
    admissible set, if it has one.  ``adjoint_derivative`` evaluates
    F'(x)*w, the adjoint taken with respect to the weighted L^2 inner
    products of the two grids.  The solver calls the maps' ``on_values`` on
    raw sample arrays.  Arrays handed to ``on_values`` must not be written to
    afterwards: the elliptic model keeps the state of the last array it saw,
    keyed by the array object, and the solver marks its iterates read-only.
    ``project`` (optional) maps a raw value array onto the admissible set and
    is used by the solver after each step.

    ``gauss_newton`` (optional) solves the Gauss-Newton system of an r = 2
    misfit on raw arrays, ``gauss_newton(v, free, diag, sub, rhs)``: with
    J = F'(x) as a matrix on the sample values v of x, W_y the data grid's
    weights, D_f the diagonal 0/1 matrix of the boolean mask ``free`` and B
    the symmetric tridiagonal matrix with diagonal ``diag`` and sub-diagonal
    ``sub``, it returns s with (2 (J D_f)^T W_y (J D_f) + B) s = rhs.  It
    raises SingularSystemError when that matrix is singular.  Only a model
    with a ``project`` has coordinates to fix: a model without one is always
    called with an all-true ``free``, and may raise ValueError on any other.
    """

    name: str
    apply: GridMap
    adjoint_derivative: GridMap
    project: Optional[Callable[[np.ndarray], np.ndarray]] = None
    gauss_newton: Optional[Callable[..., np.ndarray]] = None

    def __post_init__(self):
        for field in ("apply", "adjoint_derivative"):
            grid_map = getattr(self, field)
            if not callable(getattr(grid_map, "on_values", None)):
                raise TypeError(f"{field} must be a GridMap, got {grid_map!r}")

    @property
    def x_grid(self) -> Grid:
        return self.apply.in_grids[0]

    @property
    def y_grid(self) -> Grid:
        return self.apply.out_grid


def _sandwich_table(t_diag: np.ndarray, t_off: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The band of T B T as fixed weights on B's diagonals, for ``_sandwich_solver``.

    Entry (j + k, j) of T B T, k = 0..3, is the sum over d = -1, 0, 1 of

        T[j+k, j+d] T[j+d, j] diag[j+d]
          + (T[j+k, j+d+1] T[j+d, j] + T[j+k, j+d] T[j+d+1, j]) sub[j+d].

    With ``vals = [0, diag, 0, 0, sub, 0, 0]``, ``vals[index]`` holds
    diag[j+d] in row d + 1 and sub[j+d] in row d + 4, zero past the ends,
    and ``weights[k]`` their factors, so the band is
    ``(weights * vals[index]).sum(axis=1)``.  Both tables are O(n).
    """
    n = t_diag.size
    padded = np.zeros((3, n + 6))  # padded[o + 1, 3 + i] = T[i, i + o], 0 off the matrix
    padded[0, 4:n + 3] = t_off
    padded[1, 3:n + 3] = t_diag
    padded[2, 3:n + 2] = t_off

    def t(a: int, b: int) -> np.ndarray:  # the vector j -> T[j + a, j + b]
        return padded[b - a + 1, 3 + a:3 + a + n] if abs(b - a) <= 1 else np.zeros(n)

    weights = np.array([[t(k, d) * t(d, 0) for d in (-1, 0, 1)]
                        + [t(k, d + 1) * t(d, 0) + t(k, d) * t(d + 1, 0) for d in (-1, 0, 1)]
                        for k in range(4)])
    index = np.arange(n) + np.array([0, 1, 2, n + 2, n + 3, n + 4])[:, None]
    return index, weights


def _sandwich_band(t_diag: np.ndarray, t_off: np.ndarray, diag: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """The band of T B T in closed form, O(n), in ``dpbsv``'s lower layout: ``band[k, j]`` = (T B T)[j + k, j].

    T and B are symmetric tridiagonal, T with diagonal a = ``t_diag`` and
    off-diagonal o = ``t_off``, B with diagonal d = ``diag`` and off-diagonal
    e = ``sub``.  With p_i = o_i e_i, q_i = a_i e_i + o_i d_{i+1} and every
    index outside its vector read as 0:

        band[0, i] = a_i^2 d_i + 2 a_i (p_{i-1} + p_i) + o_{i-1}^2 d_{i-1} + o_i^2 d_{i+1}
        band[1, i] = o_i (p_{i-1} + a_i d_i + p_i + p_{i+1}) + a_{i+1} q_i
        band[2, i] = o_{i+1} q_i + a_{i+2} o_i e_{i+1}
        band[3, i] = o_i o_{i+2} e_{i+1}
    """
    a, o, d, e = t_diag, t_off, diag, sub
    n = a.size
    p = np.zeros(n + 1)  # p[i + 1] = p_i, so p_{-1} = p_{n-1} = 0
    np.multiply(o, e, out=p[1:-1])
    pp = p[:-1] + p[1:]  # p_{i-1} + p_i
    ad = a * d
    q = a[:-1] * e + o * d[1:]
    r = o * o
    band = np.zeros((4, n))
    np.multiply(a, ad + 2.0 * pp, out=band[0])
    band[0, :-1] += r * d[1:]
    band[0, 1:] += r * d[:-1]
    band[1, :-1] = o * (ad[:-1] + pp[:-1] + p[2:]) + a[1:] * q
    band[2, :-2] = o[1:] * q[:-1] + a[2:] * o[:-1] * e[1:]
    band[3, :-3] = o[:-2] * o[2:] * e[1:-1]
    return band


def _times_tridiagonal(t_diag: np.ndarray, t_off: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T v, T symmetric tridiagonal with diagonal ``t_diag`` and off-diagonal ``t_off``."""
    out = t_diag * v
    out[:-1] += t_off * v[1:]
    out[1:] += t_off * v[:-1]
    return out


def _sandwich_solve(band: np.ndarray, t_diag: np.ndarray, t_off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """T y for the y with M y = T rhs, by one ``dpbsv`` on the lower band of M (3 sub-diagonals).

    T is symmetric tridiagonal with diagonal ``t_diag`` and off-diagonal
    ``t_off``; ``band`` is overwritten, and SingularSystemError is raised
    unless M is positive definite.  Both Gauss-Newton steps end here: with
    H s = rhs and M = T H T, the solution is s = T y.
    """
    y, info = dpbsv(band, _times_tridiagonal(t_diag, t_off, rhs), lower=1, overwrite_ab=1)[1:]
    if info != 0:
        raise SingularSystemError(f"banded system is not positive definite (info={info})")
    return _times_tridiagonal(t_diag, t_off, y)


def _sandwich_solver(t_diag: np.ndarray, t_off: np.ndarray, shift: np.ndarray) -> Callable[..., np.ndarray]:
    """``solve(diag, sub, rhs)``: s = T y for (T B T + diag(shift)) y = T rhs, with T fixed.

    T is symmetric tridiagonal with diagonal ``t_diag`` and off-diagonal
    ``t_off``, B with diagonal ``diag`` and sub-diagonal ``sub``; see
    ``_sandwich_solve``.  The tables of ``_sandwich_table`` are built at
    the first call, so a solver that is never called costs nothing.
    """
    n = t_diag.size
    table = None

    def solve(diag: np.ndarray, sub: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        nonlocal table
        if table is None:
            table = _sandwich_table(t_diag, t_off)
        index, weights = table
        vals = np.zeros(2 * n + 4)
        vals[1:n + 1] = diag
        vals[n + 3:-2] = sub
        band = (weights * vals[index]).sum(axis=1)
        band[0] += shift
        return _sandwich_solve(band, t_diag, t_off, rhs)

    return solve


def fredholm_model(n: int) -> ForwardModel:
    """Linear integral operator on [0,1] with kernel 40*min(s,t)*(1-max(s,t)).

    The integral is discretized with composite trapezoid quadrature on an
    n-point nodal grid shared by x and y.  The kernel is 40 times the Green's
    function of -u'' with zero ends, which the 3-point Laplacian
    L = h^-2 tridiag(-1, 2, -1) on the n - 2 interior nodes inverts exactly:
    the matrix of F is 40 L^-1 on the interior and 0 in the boundary rows and
    columns.  With T the identity on the two ends and L inside, the
    Gauss-Newton matrix becomes T (2 K^T W K + B) T = T B T + 3200 h I_int,
    and each step is one banded Cholesky solve in O(n).  The model has no
    projection, so its ``gauss_newton`` takes only an all-true mask and
    raises ValueError on any other.
    """
    if n < 3:
        raise ValueError(f"fredholm_model needs n >= 3, got {n}")
    grid = Grid(n)
    pts = grid.points()
    s = pts[:, None]
    t = pts[None, :]
    kernel = 40.0 * np.minimum(s, t) * (1.0 - np.maximum(s, t))
    apply_mat = kernel * grid.weights()[None, :]
    h = grid.h
    inv_h2 = 1.0 / (h * h)
    t_diag = np.full(n, 2.0 * inv_h2)
    t_diag[[0, -1]] = 1.0
    t_off = np.full(n - 1, -inv_h2)
    t_off[[0, -1]] = 0.0
    shift = np.full(n, 2.0 * 40.0**2 * h)  # T 2 K^T W K T = 2 (40 L^-1 L)^T h (40 L^-1 L) inside
    shift[[0, -1]] = 0.0
    solve = _sandwich_solver(t_diag, t_off, shift)

    def gauss_newton(v, free, diag, sub, rhs):
        if not free.all():
            raise ValueError("the Fredholm model has no bound to hold coordinates at; free must be all true")
        return solve(diag, sub, rhs)

    return ForwardModel(
        name="fredholm",
        apply=GridMap(lambda x: apply_mat @ x, grid, grid),
        # The kernel is symmetric, so the weighted adjoint of F' = F is apply_mat @ v.
        adjoint_derivative=GridMap(lambda x, v: apply_mat @ v, grid, grid, grid),
        gauss_newton=gauss_newton,
    )


def elliptic_model(N: int, g0: float, g1: float, f: GridFunction) -> ForwardModel:
    """Coefficient-to-state map for -u'' + c*u = f on (0,1), u(0)=g0, u(1)=g1.

    Standard 3-point finite differences on N equal subintervals: the state u
    lives on the N-1 interior nodes, the coefficient c on all N+1 nodes.
    Admissible coefficients are pointwise nonnegative, which keeps the
    tridiagonal operator A(c) an M-matrix.

    The Jacobian is J = -A(c)^-1 diag(u) on the interior coefficients.  When
    every interior coefficient is free and u has no zero, the Gauss-Newton
    step is the Fredholm model's band solve with a congruence that changes
    with c: P = diag(sigma) T, sigma = (1, 1/u, 1) and T = [1; A(c); 1], so
    that P^T H P = T (sigma B sigma) T + 2h I_int and each step is one
    ``dpbsv`` of size N + 1 with 3 sub-diagonals.  A step that holds an
    interior coefficient, or meets a zero of u, solves a banded saddle
    system of size 3(N - 1) + 2 by one ``dgbsv`` instead.
    """
    if N < 4:
        raise ValueError(f"elliptic_model needs N >= 4, got {N}")
    c_grid = Grid(N + 1, convention="nodal")
    u_grid = Grid(N - 1, convention="interior")
    if f.grid != u_grid:
        raise ValueError("source term must live on the interior state grid")
    h = 1.0 / N
    inv_h2 = 1.0 / (h * h)
    off = np.full(N - 2, -inv_h2)
    base_rhs = f.values.copy()
    base_rhs[0] += g0 * inv_h2
    base_rhs[-1] += g1 * inv_h2
    # The last coefficient array with the diagonal of A(c) (its off-diagonals
    # are ``off``) and the state u(c).  The key is the array object itself, so
    # only a read-only one (GridFunction values, the solver's iterates) can
    # hit.  The triple is one tuple, replaced whole and read once, so a model
    # shared across threads may miss but never pairs c with another c's state.
    last = (None, None, None)

    def _solved(c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        nonlocal last
        key, diag, u = last
        if key is c and not c.flags.writeable:
            return diag, u
        if not (c >= 0.0).all():
            raise InadmissibleCoefficientError("coefficient must be nonnegative pointwise")
        diag = 2.0 * inv_h2 + c[1:-1]
        u = solve_tridiagonal(off, diag, off, base_rhs)
        u.setflags(write=False)  # apply.on_values hands out this array itself
        last = (c, diag, u)
        return diag, u

    def adjoint_derivative(c: np.ndarray, w: np.ndarray) -> np.ndarray:
        diag, u = _solved(c)
        v = solve_tridiagonal(off, diag, off, w)
        full = np.zeros(N + 1)
        full[1:-1] = -u * v
        return full

    # J = -A(c)^{-1} diag(u) and W_y = h I give H = B + 2h U_f A^-2 U_f on
    # the interior block, U_f = diag(u_f) with u_f = u on the free interior
    # nodes and 0 elsewhere.  With no zero in u_f, P = diag(sigma) T as in the
    # docstring gives P^T H P = T (sigma B sigma) T + 2h I_int; T has no
    # coupling to the two ends, and its band is built in closed form.
    t_off = np.zeros(N)
    t_off[1:-1] = -inv_h2

    def congruent_step(a_diag, u, diag, sub, rhs):
        t_diag = np.ones(N + 1)
        t_diag[1:-1] = a_diag
        sigma = np.ones(N + 1)
        sigma[1:-1] = 1.0 / u
        band = _sandwich_band(t_diag, t_off, sigma * sigma * diag, sigma[:-1] * sigma[1:] * sub)
        band[0, 1:-1] += 2.0 * h
        return sigma * _sandwich_solve(band, t_diag, t_off, sigma * rhs)

    # A fixed interior coordinate or a zero of u leaves U_f singular, and no
    # congruence makes the masked A^-2 block banded.  Such a step solves
    #   B s + diag(u_f) z = rhs,   A w - diag(u_f) s = 0,   A z - 2h w = 0.
    # Ordered s_0, (s_k, w_k, z_k) for k = 1..N-1, s_N, every coupling lies
    # within three places of the diagonal: one dgbsv of size 3(N-1)+2.
    size = 3 * (N - 1) + 2
    s_at = np.arange(N + 1) * 3 - 2
    s_at[0] = 0
    w_at = s_at[1:-1] + 1
    z_at = s_at[1:-1] + 2
    kl = ku = 3

    def gauss_newton(c, free, diag, sub, rhs):
        a_diag, u = _solved(c)
        u_f = u * free[1:-1]
        if u_f.all():  # tested first: 1/u must not meet a zero
            return congruent_step(a_diag, u, diag, sub, rhs)
        band = np.zeros((2 * kl + ku + 1, size))

        def put(rows, cols, values):
            band[kl + ku + rows - cols, cols] = values

        put(s_at, s_at, diag)
        put(s_at[1:], s_at[:-1], sub)
        put(s_at[:-1], s_at[1:], sub)
        put(s_at[1:-1], z_at, u_f)
        for at, coupled, weight in ((w_at, s_at[1:-1], -u_f), (z_at, w_at, -2.0 * h)):
            put(at, at, a_diag)
            put(at[1:], at[:-1], -inv_h2)
            put(at[:-1], at[1:], -inv_h2)
            put(at, coupled, weight)
        b = np.zeros(size)
        b[s_at] = rhs
        x, info = dgbsv(kl, ku, band, b, overwrite_ab=1, overwrite_b=1)[2:]
        if info != 0:
            raise SingularSystemError(f"singular Gauss-Newton system: zero pivot in row {info}")
        return x[s_at]

    return ForwardModel(
        name="elliptic",
        apply=GridMap(lambda c: _solved(c)[1], u_grid, c_grid),
        adjoint_derivative=GridMap(adjoint_derivative, c_grid, c_grid, u_grid),
        project=lambda vals: np.maximum(vals, 0.0),
        gauss_newton=gauss_newton,
    )


NOISE_KINDS = ("gaussian", "impulsive", "impulsive_gaussian")


@dataclass(frozen=True)
class NoiseSpec:
    """Deterministic noise generator configuration.

    gaussian:  level > 0, perturbation rescaled to that exact L^2 norm.
    impulsive: ceil(fraction*n) samples shifted by +-amplitude; the chosen
               indices and signs are a pure function of the seed.
    impulsive_gaussian: the impulsive law plus a dense gaussian background
               of exact L^2 norm ``level`` (the gross-error contamination
               model); the impulses are drawn first, then the background,
               from the same seeded stream.
    """

    kind: str
    level: float | None = None
    fraction: float | None = None
    amplitude: float | None = None
    seed: int = 0

    def __post_init__(self):
        require(self.problems(self.kind, self.level, self.fraction, self.amplitude, self.seed))

    @staticmethod
    def problems(kind, level, fraction, amplitude, seed) -> Iterator[str]:
        """Every reason these arguments make no NoiseSpec, each led by its field name."""
        if kind not in NOISE_KINDS:
            yield f"kind must be one of {NOISE_KINDS}, got {kind!r}"
        if kind in ("gaussian", "impulsive_gaussian") and not (is_real(level) and level > 0):
            yield f"level must be positive, got {level!r}"
        if kind in ("impulsive", "impulsive_gaussian"):
            if not (is_real(fraction) and 0 < fraction < 1):
                yield f"fraction must lie in (0, 1), got {fraction!r}"
            if not (is_real(amplitude) and amplitude > 0):
                yield f"amplitude must be positive, got {amplitude!r}"
        if not (is_integer(seed) and seed >= 0):
            yield f"seed must be a nonnegative integer, got {seed!r}"


def gaussian_draw(rng: np.random.Generator, grid: Grid, exponent: float) -> Tuple[np.ndarray, float]:
    """One standard normal sample per point of ``grid`` and the weighted L^exponent norm of the draw."""
    raw = rng.standard_normal(grid.n)
    return raw, lr_norm(grid.function(raw), exponent)


@np.errstate(over="ignore", invalid="ignore")  # non-finite noisy data are a NoiseOverflowError
def make_noisy(y: GridFunction, spec: NoiseSpec, norm_exponent: float = 2.0):
    """Perturb exact data; returns (noisy, delta) with delta = ||noisy - y||.

    The realized noise level is reported in the experiment's data norm, i.e.
    the L^norm_exponent norm on y's grid.  Bit-reproducible for a fixed seed.
    Noisy values beyond the float range raise NoiseOverflowError.
    """
    rng = np.random.default_rng(spec.seed)
    n = y.n
    if spec.kind == "gaussian":
        raw, nrm = gaussian_draw(rng, y.grid, 2.0)
        pert = (spec.level / nrm) * raw
    else:
        count = int(math.ceil(spec.fraction * n))
        idx = rng.choice(n, size=count, replace=False)
        signs = rng.integers(0, 2, size=count) * 2 - 1
        pert = np.zeros(n)
        pert[idx] = spec.amplitude * signs
        if spec.kind == "impulsive_gaussian":
            raw, nrm = gaussian_draw(rng, y.grid, 2.0)
            pert = pert + (spec.level / nrm) * raw
    values = y.values + pert
    if not np.isfinite(values).all():
        raise NoiseOverflowError(f"{spec.kind} noise of this size gives noisy data beyond the float range")
    noisy = y.with_values(values)
    delta = lr_norm(y.with_values(pert), norm_exponent)
    return noisy, delta
