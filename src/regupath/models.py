"""Forward operators (integral equation and elliptic coefficient problem) and noise."""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dgbsv, dposv

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
    GridFunctions.
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


def _array_form(op: Callable[..., GridFunction], *grids: Grid) -> Callable[..., np.ndarray]:
    """The array form of a grid-function map: its own for a GridMap, else a wrap through ``grids``."""
    own = getattr(op, "on_values", None)
    if own is not None:
        return own
    return lambda *arrays: op(*(grid.function(a) for grid, a in zip(grids, arrays))).values


@dataclass(frozen=True, eq=False)
class ForwardModel:
    """Operator contract: F, its derivative action and the adjoint action.

    ``apply`` maps x_grid functions to y_grid functions and raises
    InadmissibleCoefficientError outside the model's admissible set, if it
    has one.  ``derivative`` and ``adjoint_derivative`` evaluate F'(x)h and
    F'(x)*w; the adjoint is taken with respect to the weighted L^2 inner
    products of the two grids.  ``project`` (optional) maps a raw value
    array onto the admissible set and is used by the solver after each step.

    The shipped models build ``apply``, ``derivative`` and
    ``adjoint_derivative`` as GridMaps, one wrapper each over an array-level
    implementation.  ``apply_values(v)`` and ``adjoint_values(v, w)`` are
    those array forms, on the raw sample arrays of x and of the data-space w;
    they return plain arrays and, unlike the GridFunction forms, let a
    non-finite output through.  A model whose callables are not GridMaps
    gets array forms that wrap the arrays in GridFunctions, and ``apply_at``
    hands such a model's ``apply`` the caller's GridFunction itself, where
    the solver evaluates its start point.  Arrays handed to the array forms
    must not be written to afterwards: the elliptic model keeps the state of
    the last array it saw, keyed by the array object, and the solver marks
    its iterates read-only.

    ``gauss_newton`` (optional) solves the Gauss-Newton system of an r = 2
    misfit on raw arrays, ``gauss_newton(v, free, diag, sub, rhs)``: with
    J = F'(x) as a matrix on the sample values v of x, W_y the data grid's
    weights, D_f the diagonal 0/1 matrix of the boolean mask ``free`` and B
    the symmetric tridiagonal matrix with diagonal ``diag`` and sub-diagonal
    ``sub``, it returns s with (2 (J D_f)^T W_y (J D_f) + B) s = rhs.  It
    raises SingularSystemError when that matrix is singular.
    """

    name: str
    x_grid: Grid
    y_grid: Grid
    apply: Callable[[GridFunction], GridFunction]
    derivative: Callable[[GridFunction, GridFunction], GridFunction]
    adjoint_derivative: Callable[[GridFunction, GridFunction], GridFunction]
    project: Optional[Callable[[np.ndarray], np.ndarray]] = None
    gauss_newton: Optional[Callable[..., np.ndarray]] = None

    @property
    def apply_values(self) -> Callable[[np.ndarray], np.ndarray]:
        return _array_form(self.apply, self.x_grid)

    def apply_at(self, x: GridFunction) -> np.ndarray:
        """F(x) as a plain array: ``apply_values(x.values)``, or ``apply(x)`` itself when it is no GridMap."""
        own = getattr(self.apply, "on_values", None)
        return own(x.values) if own is not None else self.apply(x).values

    @property
    def adjoint_values(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        return _array_form(self.adjoint_derivative, self.x_grid, self.y_grid)


def fredholm_model(n: int) -> ForwardModel:
    """Linear integral operator on [0,1] with kernel 40*min(s,t)*(1-max(s,t)).

    The integral is discretized with composite trapezoid quadrature on an
    n-point nodal grid shared by x and y.
    """
    if n < 3:
        raise ValueError(f"fredholm_model needs n >= 3, got {n}")
    grid = Grid(n)
    pts = grid.points()
    s = pts[:, None]
    t = pts[None, :]
    kernel = 40.0 * np.minimum(s, t) * (1.0 - np.maximum(s, t))
    w = grid.weights()
    apply_mat = kernel * w[None, :]
    # The kernel is symmetric, so the adjoint for the weighted inner product
    # has the same entries.  BLAS sums a column-major matrix-vector product in
    # another order than a row-major one, and the shipped outputs depend on
    # the adjoint's order, so the adjoint keeps its own column-major copy.
    adjoint_mat = np.asfortranarray(apply_mat)
    root_w = np.sqrt(w)
    diagonal = np.arange(n)

    def gauss_newton(v, free, diag, sub, rhs):
        # 2 (W^(1/2) K D_f)^T (W^(1/2) K D_f) by one dsyrk into the lower
        # triangle, then B added in place and a Cholesky solve
        scaled = (root_w[:, None] * apply_mat) * free
        gram = dsyrk(2.0, scaled.T, lower=1)
        gram[diagonal, diagonal] += diag
        gram[diagonal[1:], diagonal[:-1]] += sub
        s, info = dposv(gram, rhs, lower=1, overwrite_a=1)[1:]
        if info != 0:
            raise SingularSystemError(f"Gauss-Newton matrix is not positive definite (info={info})")
        return s

    return ForwardModel(
        name="fredholm",
        x_grid=grid,
        y_grid=grid,
        apply=GridMap(lambda x: apply_mat @ x, grid, grid),
        derivative=GridMap(lambda x, h: apply_mat @ h, grid, grid, grid),
        adjoint_derivative=GridMap(lambda x, v: adjoint_mat @ v, grid, grid, grid),
        gauss_newton=gauss_newton,
    )


def elliptic_model(N: int, g0: float, g1: float, f: GridFunction) -> ForwardModel:
    """Coefficient-to-state map for -u'' + c*u = f on (0,1), u(0)=g0, u(1)=g1.

    Standard 3-point finite differences on N equal subintervals: the state u
    lives on the N-1 interior nodes, the coefficient c on all N+1 nodes.
    Admissible coefficients are pointwise nonnegative, which keeps the
    tridiagonal operator an M-matrix.
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
    # are ``off``) and the state u(c), one triple per thread, so that paths
    # solved on worker threads do not evict each other.  The key is the array
    # object itself, so only a read-only one (GridFunction values, the
    # solver's iterates) can hit.
    last = threading.local()

    def _solved(c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        hit = getattr(last, "state", None)
        if hit is not None and hit[0] is c and not c.flags.writeable:
            return hit[1], hit[2]
        if not (c >= 0.0).all():
            raise InadmissibleCoefficientError("coefficient must be nonnegative pointwise")
        diag = 2.0 * inv_h2 + c[1:-1]
        u = solve_tridiagonal(off, diag, off, base_rhs)
        u.setflags(write=False)  # apply_values hands out this array itself
        last.state = (c, diag, u)
        return diag, u

    def derivative(c: np.ndarray, hdir: np.ndarray) -> np.ndarray:
        diag, u = _solved(c)
        return -solve_tridiagonal(off, diag, off, hdir[1:-1] * u)

    def adjoint_derivative(c: np.ndarray, w: np.ndarray) -> np.ndarray:
        diag, u = _solved(c)
        v = solve_tridiagonal(off, diag, off, w)
        full = np.zeros(N + 1)
        full[1:-1] = -u * v
        return full

    # J = -A(c)^{-1} diag(u) on the interior coefficients, so with u_f = u on
    # the free interior nodes and 0 elsewhere the Gauss-Newton system is
    #   B s + diag(u_f) z = rhs,   A w - diag(u_f) s = 0,   A z - 2h w = 0
    # (W_y = h I).  Ordered s_0, (s_k, w_k, z_k) for k = 1..N-1, s_N, every
    # coupling lies within three places of the diagonal.
    size = 3 * (N - 1) + 2
    s_at = np.arange(N + 1) * 3 - 2
    s_at[0] = 0
    w_at = s_at[1:-1] + 1
    z_at = s_at[1:-1] + 2
    kl = ku = 3

    def gauss_newton(c, free, diag, sub, rhs):
        a_diag, u = _solved(c)
        u_f = u * free[1:-1]
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
        x_grid=c_grid,
        y_grid=u_grid,
        apply=GridMap(lambda c: _solved(c)[1], u_grid, c_grid),
        derivative=GridMap(derivative, u_grid, c_grid, c_grid),
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


@np.errstate(over="ignore", invalid="ignore")  # non-finite noisy data are a NoiseOverflowError
def make_noisy(y: GridFunction, spec: NoiseSpec, norm_exponent: float = 2.0):
    """Perturb exact data; returns (noisy, delta) with delta = ||noisy - y||.

    The realized noise level is reported in the experiment's data norm, i.e.
    the L^norm_exponent norm on y's grid.  Bit-reproducible for a fixed seed.
    Noisy values beyond the float range raise NoiseOverflowError.
    """
    rng = np.random.default_rng(spec.seed)
    n = y.n
    w = y.grid.weights()
    if spec.kind == "gaussian":
        raw = rng.standard_normal(n)
        nrm = math.sqrt(float(np.sum(w * raw * raw)))
        pert = (spec.level / nrm) * raw
    else:
        count = int(math.ceil(spec.fraction * n))
        idx = rng.choice(n, size=count, replace=False)
        signs = rng.integers(0, 2, size=count) * 2 - 1
        pert = np.zeros(n)
        pert[idx] = spec.amplitude * signs
        if spec.kind == "impulsive_gaussian":
            raw = rng.standard_normal(n)
            nrm = math.sqrt(float(np.sum(w * raw * raw)))
            pert = pert + (spec.level / nrm) * raw
    values = y.values + pert
    if not np.isfinite(values).all():
        raise NoiseOverflowError(f"{spec.kind} noise of this size gives noisy data beyond the float range")
    noisy = y.with_values(values)
    delta = lr_norm(y.with_values(pert), norm_exponent)
    return noisy, delta
