"""Forward operators (integral equation and elliptic coefficient problem) and noise."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .grid import (Grid, GridFunction, SingularSystemError, is_integer, is_real, lapack, lr_norm, require,
                   solve_tridiagonal)


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
    lets a non-finite output through.  It returns an array that the map never
    writes to again: a solver record keeps it as it is.
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


class BandJacobian(NamedTuple):
    """The band form of a Jacobian J = F'(x), as ``gauss_newton_step`` takes it.

    J is zero in the two boundary columns and J = -A^-1 diag(``u``) inside,
    A symmetric positive definite tridiagonal.  ``shift`` is 2 W_y inside,
    W_y the data grid's weights, and 0 at the two ends; a constant factor k
    of J goes into it as k^2.  ``t_diag`` and ``t_off`` are the diagonal
    and off-diagonal of T = [1; A; 1], ``u`` is None for u = 1, and
    ``factors`` is a dict only for a Jacobian that never changes.  No array
    of the record is written to.
    """

    t_diag: np.ndarray
    t_off: np.ndarray
    u: Optional[np.ndarray]
    shift: np.ndarray
    factors: Optional[dict] = None


@dataclass(frozen=True, eq=False)
class ForwardModel:
    """Operator contract: F, the adjoint action F'(x)* and the band form of F'(x).

    ``apply`` and ``adjoint_derivative`` are GridMaps (or wrappers that carry
    a GridMap's ``on_values``, ``out_grid`` and ``in_grids``), and
    construction raises TypeError for one without ``on_values``.  ``apply``
    maps x_grid functions to y_grid functions, and the two grids are read
    from it; it raises InadmissibleCoefficientError outside the model's
    admissible set, if it has one.  ``adjoint_derivative`` evaluates
    F'(x)*w, the adjoint taken with respect to the weighted L^2 inner
    products of the two grids.  The solver calls the maps' ``on_values`` on
    raw sample arrays, which it may write to afterwards; a map that reuses
    work from an earlier call (the elliptic model keeps the state of its last
    coefficient) compares values, not array objects.  The arrays that
    ``apply``'s ``on_values`` and ``project`` return are never written to
    again by the model: the solver's record keeps them as its x and fx.
    ``project`` (optional) maps a raw value array onto the admissible set and
    is used by the solver after each step.

    ``jacobian`` (optional) maps the sample values v of x to the
    BandJacobian of F'(x).  The solver takes the Gauss-Newton steps of an
    r = 2 misfit on a model with one, each by ``gauss_newton_step``, and
    descent steps on a model without.
    """

    name: str
    apply: GridMap
    adjoint_derivative: GridMap
    project: Optional[Callable[[np.ndarray], np.ndarray]] = None
    jacobian: Optional[Callable[[np.ndarray], BandJacobian]] = None

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


def _sandwich_band(t_diag: np.ndarray, t_off: np.ndarray, diag: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """The band of T B T in closed form, O(n), in ``dpbtrf``'s lower layout: ``band[k, j]`` = (T B T)[j + k, j].

    T and B are symmetric tridiagonal, T with diagonal a = ``t_diag`` and
    off-diagonal o = ``t_off``, B with diagonal d = ``diag`` and
    off-diagonal e = ``sub``.  With p_i = o_i e_i, q_i = a_i e_i + o_i d_{i+1}
    and every index outside its vector read as 0:

        band[0, i] = a_i^2 d_i + 2 a_i (p_{i-1} + p_i) + o_{i-1}^2 d_{i-1} + o_i^2 d_{i+1}
        band[1, i] = o_i (p_{i-1} + a_i d_i + p_i + p_{i+1}) + a_{i+1} q_i
        band[2, i] = o_{i+1} q_i + a_{i+2} o_i e_{i+1}
        band[3, i] = o_i o_{i+2} e_{i+1}
    """
    a, o, d, e = t_diag, t_off, diag, sub
    n = a.size
    ad = a * d
    band = np.zeros((4, n))
    p = np.zeros(n + 1)  # p[i + 1] = p_i, so p_{-1} = p_{n-1} = 0
    np.multiply(o, e, out=p[1:-1])
    pp = p[:-1] + p[1:]  # p_{i-1} + p_i
    q = a[:-1] * e + o * d[1:]
    np.multiply(a, ad + 2.0 * pp, out=band[0])
    band[1, :-1] = o * (ad[:-1] + pp[:-1] + p[2:]) + a[1:] * q
    band[2, :-2] = o[1:] * q[:-1] + a[2:] * o[:-1] * e[1:]
    band[3, :-3] = o[:-2] * o[2:] * e[1:-1]
    r = o * o
    band[0, :-1] += r * d[1:]
    band[0, 1:] += r * d[:-1]
    return band


def _times_tridiagonal(t_diag: np.ndarray, t_off: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T v, T symmetric tridiagonal with diagonal ``t_diag`` and off-diagonal ``t_off``."""
    out = t_diag * v
    out[:-1] += t_off * v[1:]
    out[1:] += t_off * v[:-1]
    return out


def _sandwich_factor(t_diag: np.ndarray, t_off: np.ndarray, diag: np.ndarray, sub: np.ndarray,
                     shift: np.ndarray) -> np.ndarray:
    """The banded Cholesky factor of T B T + diag(shift), by one ``dpbtrf`` (3 sub-diagonals).

    T is symmetric tridiagonal with diagonal ``t_diag`` and off-diagonal
    ``t_off``, B with diagonal ``diag`` and sub-diagonal ``sub``; the band
    of T B T comes from ``_sandwich_band``.  SingularSystemError is raised
    unless the matrix is positive definite.  ``dpbsv`` is ``dpbtrf`` then
    ``dpbtrs``, so this and ``_sandwich_solve`` give ``dpbsv``'s bits.
    """
    band = _sandwich_band(t_diag, t_off, diag, sub)
    band[0] += shift
    factor, info = lapack().dpbtrf(band, lower=1, overwrite_ab=1)
    if info != 0:
        raise SingularSystemError(f"banded system is not positive definite (info={info})")
    return factor


def _sandwich_solve(t_diag: np.ndarray, t_off: np.ndarray, factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """s = T y for the y with (T B T + diag(shift)) y = T rhs, by one ``dpbtrs`` on ``_sandwich_factor``'s factor."""
    y = lapack().dpbtrs(factor, _times_tridiagonal(t_diag, t_off, rhs), lower=1, overwrite_b=1)[0]
    return _times_tridiagonal(t_diag, t_off, y)


@lru_cache(maxsize=8)
def _saddle_order(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The places of s, w and z among ``_saddle_step``'s unknowns; shared by every caller, so read only.

    Cached per n: building them took 4 us of a 170 us step at n = 401 (2-vCPU x86 host).
    """
    s_at = np.arange(n) * 3 - 2
    s_at[0] = 0
    return s_at, s_at[1:-1] + 1, s_at[1:-1] + 2


def _saddle_step(t_diag: np.ndarray, t_off: np.ndarray, u_f: np.ndarray, shift: np.ndarray, diag: np.ndarray,
                 sub: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The s of B s + U_f z = rhs, A w - U_f s = 0, A z - S w = 0 by one ``dgbsv``; see gauss_newton_step.

    Ordered s_0, (s_k, w_k, z_k) for k = 1..n-2, s_{n-1}, every coupling
    lies within three places of the diagonal: kl = ku = 3, and entry (i, j)
    sits at ``band[kl + ku + i - j, j]`` of a band with 2 kl + ku + 1 rows.
    """
    s_at, w_at, z_at = _saddle_order(t_diag.size)
    band = np.zeros((10, s_at[-1] + 1))

    def put(rows, cols, values):
        band[6 + rows - cols, cols] = values

    put(s_at, s_at, diag)
    put(s_at[1:], s_at[:-1], sub)
    put(s_at[:-1], s_at[1:], sub)
    put(s_at[1:-1], z_at, u_f)
    for at, coupled, weight in ((w_at, s_at[1:-1], -u_f), (z_at, w_at, -shift[1:-1])):
        put(at, at, t_diag[1:-1])
        put(at[1:], at[:-1], t_off[1:-1])
        put(at[:-1], at[1:], t_off[1:-1])
        put(at, coupled, weight)
    b = np.zeros(band.shape[1])
    b[s_at] = rhs
    x, info = lapack().dgbsv(3, 3, band, b, overwrite_ab=1, overwrite_b=1)[2:]
    if info != 0:
        raise SingularSystemError(f"singular Gauss-Newton system: zero pivot in row {info}")
    return x[s_at]


# The most factors one BandJacobian's dict keeps; 128 covers a path of 121 alphas.
_FACTOR_CAP = 128


def gauss_newton_step(jac: BandJacobian, free: Optional[np.ndarray], diag: np.ndarray, sub: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
    """The s with (2 (J D_f)^T W_y (J D_f) + B) s = rhs, for the J whose band form is ``jac``.

    D_f is the 0/1 diagonal of the boolean mask ``free`` (None: all free),
    and B is symmetric tridiagonal with diagonal ``diag`` and sub-diagonal
    ``sub``.  With A, T and u as in BandJacobian, S = diag(shift) and
    U_f = diag(u_f), u_f = u on the free interior nodes and 0 elsewhere, the
    matrix is H = B + U_f A^-1 S A^-1 U_f, the second term on the interior
    block.  SingularSystemError is raised for a singular H, or for a
    congruent band that is not positive definite.

    Congruent route, when u_f has no zero and B is diagonal or u is not
    None: with sigma = (1, 1/u, 1) (1 for u None) and P = diag(sigma) T,
    P^T H P = T (sigma B sigma) T + diag(shift), whose band
    ``_sandwich_band`` builds in closed form; one ``dpbtrf`` and one
    ``dpbtrs`` solve P^T H P y = P^T rhs, and s = P y.  The backward error
    grows with cond(P)^2, so the route is loose where sigma B sigma dwarfs
    the shift, as smoothed TV can make it.  With ``jac.factors`` a dict, each
    factor is kept there, keyed on the bytes of B, so a B that recurs (the
    quadratic penalty's 2 alpha W, on every later path of the model) solves
    by ``dpbtrs`` alone.  At ``_FACTOR_CAP`` factors the dict is emptied
    before the next one goes in.

    Saddle route, when u_f has a zero (a held interior coordinate or a zero
    of u), which no congruence makes banded, or when u is None and B is not
    diagonal (the Fredholm model with smoothed TV, whose T B T reaches
    cond(T)^2 times the shift: at n = 401 and eps = 1e-3 the congruent route
    left backward errors up to 4.6e-8, or no positive definite band at all):
    ``_saddle_step``, with w = A^-1 U_f s and z = A^-1 S w.  That test runs
    only when no kept factor matches, and a B that is not diagonal is never
    kept.
    """
    t_diag, t_off, u, shift, factors = jac
    u_f = u if free is None else (1.0 if u is None else u) * free[1:-1]
    if u_f is not None and not u_f.all():  # tested first: 1/u must not meet a zero
        return _saddle_step(t_diag, t_off, u_f, shift, diag, sub, rhs)
    if u is not None:
        sigma = np.ones(t_diag.size)
        sigma[1:-1] = 1.0 / u
        diag, sub, rhs = sigma * sigma * diag, sigma[:-1] * sigma[1:] * sub, sigma * rhs
    # get, clear and item assignment are each atomic, so a Jacobian shared
    # across threads may miss but never gets another B's factor.
    key = None if factors is None else diag.tobytes() + sub.tobytes()
    factor = None if key is None else factors.get(key)
    if factor is None:
        if u is None and sub.any():
            u_f = np.ones(t_diag.size - 2) if u_f is None else u_f
            return _saddle_step(t_diag, t_off, u_f, shift, diag, sub, rhs)
        factor = _sandwich_factor(t_diag, t_off, diag, sub, shift)
        if key is not None:
            if len(factors) >= _FACTOR_CAP:
                factors.clear()
            factors[key] = factor
    s = _sandwich_solve(t_diag, t_off, factor, rhs)
    return s if u is None else sigma * s


def fredholm_model(n: int) -> ForwardModel:
    """Linear integral operator on [0,1] with kernel 40*min(s,t)*(1-max(s,t)).

    The integral is discretized with composite trapezoid quadrature on an
    n-point nodal grid shared by x and y.  The kernel is 40 times the Green's
    function of -u'' with zero ends, which the 3-point Laplacian
    L = h^-2 tridiag(-1, 2, -1) on the n - 2 interior nodes inverts exactly:
    the matrix of F is 40 L^-1 on the interior and 0 in the boundary rows and
    columns.  So ``jacobian`` returns one fixed BandJacobian, with A = L,
    ``u`` None (u = 1), shift 2 * 40^2 h inside and a factor dict: a
    Gauss-Newton step with a diagonal B (the quadratic penalties) takes the
    congruent band Cholesky and reuses the factor of a B that recurs, and a
    step with smoothed TV takes the saddle route (see gauss_newton_step).

    Memory: a live model holds one float64 n x n array, the quadrature
    matrix of F, and O(_FACTOR_CAP n) besides: each kept factor is 4n
    floats and its key 2n - 1.  The matrix is built in place in blocks of
    64 rows, so the build needs little more than the matrix itself.
    """
    if n < 3:
        raise ValueError(f"fredholm_model needs n >= 3, got {n}")
    grid = Grid(n)
    pts = grid.points()
    w = grid.weights()
    # Each block runs the whole-matrix expression's operations in its order,
    # so every entry is bit for bit what one n x n expression gives; that
    # expression would hold about three n x n temporaries at once.
    apply_mat = np.empty((n, n))
    for i in range(0, n, 64):
        s = pts[i:i + 64, None]
        apply_mat[i:i + 64] = 40.0 * np.minimum(s, pts) * (1.0 - np.maximum(s, pts)) * w
    h = grid.h
    inv_h2 = 1.0 / (h * h)
    t_diag = np.full(n, 2.0 * inv_h2)
    t_diag[[0, -1]] = 1.0
    t_off = np.full(n - 1, -inv_h2)
    t_off[[0, -1]] = 0.0
    shift = np.full(n, 2.0 * 40.0**2 * h)
    shift[[0, -1]] = 0.0
    jac = BandJacobian(t_diag, t_off, None, shift, {})

    return ForwardModel(
        name="fredholm",
        apply=GridMap(lambda x: apply_mat @ x, grid, grid),
        # The kernel is symmetric, so the weighted adjoint of F' = F is apply_mat @ v.
        adjoint_derivative=GridMap(lambda x, v: apply_mat @ v, grid, grid, grid),
        jacobian=lambda v: jac,
    )


def elliptic_model(N: int, g0: float, g1: float, f: GridFunction) -> ForwardModel:
    """Coefficient-to-state map for -u'' + c*u = f on (0,1), u(0)=g0, u(1)=g1.

    Standard 3-point finite differences on N equal subintervals: the state u
    lives on the N-1 interior nodes, the coefficient c on all N+1 nodes.
    Admissible coefficients are pointwise nonnegative, which keeps the
    tridiagonal operator A(c) an M-matrix.

    The Jacobian is J = -A(c)^-1 diag(u) on the interior coefficients:
    ``jacobian(c)`` returns it with shift 2h inside and no factor dict, as
    it changes with c (see gauss_newton_step).  With smoothed TV the
    congruent steps are loose but serve: on ``example2_piecewise`` (eps =
    0.5) its 186 steps differ from a dense solve by relative errors of
    3.8e-6 at the median and 2.4e-4 at most, and 43 of 43 solves converge.
    The saddle route on every step took 185 iterations, the same
    selections, and more than twice the CPU time.
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
    # The bytes of the last coefficient, a private copy of its values, with
    # the diagonal of A(c) (its off-diagonals are ``off``) and the state u(c).
    # Any array with the same values bit for bit reuses the state, so callers
    # may write to their arrays; comparing bytes costs a tenth of
    # ``np.array_equal``.  The triple is one tuple, replaced whole and read
    # once, so a model shared across threads may miss but never pairs c with
    # another c's state.
    last = (None, None, None)

    def _solved(c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        nonlocal last
        key = c.tobytes()
        seen, diag, u = last
        if key == seen:
            return diag, u
        if not (c >= 0.0).all():
            raise InadmissibleCoefficientError("coefficient must be nonnegative pointwise")
        diag = 2.0 * inv_h2 + c[1:-1]
        u = solve_tridiagonal(off, diag, off, base_rhs)
        u.setflags(write=False)  # apply.on_values hands out this array itself
        last = (key, diag, u)
        return diag, u

    def adjoint_derivative(c: np.ndarray, w: np.ndarray) -> np.ndarray:
        diag, u = _solved(c)
        v = solve_tridiagonal(off, diag, off, w)
        full = np.zeros(N + 1)
        full[1:-1] = -u * v
        return full

    t_off = np.concatenate(([0.0], off, [0.0]))
    shift = np.full(N + 1, 2.0 * h)
    shift[[0, -1]] = 0.0

    def jacobian(c: np.ndarray) -> BandJacobian:
        a_diag, u = _solved(c)
        t_diag = np.ones(N + 1)
        t_diag[1:-1] = a_diag
        return BandJacobian(t_diag, t_off, u, shift)

    return ForwardModel(
        name="elliptic",
        apply=GridMap(lambda c: _solved(c)[1], u_grid, c_grid),
        adjoint_derivative=GridMap(adjoint_derivative, c_grid, c_grid, u_grid),
        project=lambda vals: np.maximum(vals, 0.0),
        jacobian=jacobian,
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
