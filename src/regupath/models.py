"""Forward operators (integral equation and elliptic coefficient problem) and noise."""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from .grid import Grid, GridFunction, is_integer, is_real, lr_norm, require, solve_tridiagonal


class InadmissibleCoefficientError(ValueError):
    """Coefficient outside the operator's admissible domain."""


@dataclass(frozen=True, eq=False)
class ForwardModel:
    """Operator contract: F, its derivative action and the adjoint action.

    ``apply`` maps x_grid functions to y_grid functions and raises
    InadmissibleCoefficientError outside the model's admissible set, if it
    has one.  ``derivative`` and ``adjoint_derivative`` evaluate F'(x)h and
    F'(x)*w; the adjoint is taken with respect to the weighted L^2 inner
    products of the two grids.  ``project`` (optional) maps a raw value
    array onto the admissible set and is used by the descent solver after
    each step.
    """

    name: str
    x_grid: Grid
    y_grid: Grid
    apply: Callable[[GridFunction], GridFunction]
    derivative: Callable[[GridFunction, GridFunction], GridFunction]
    adjoint_derivative: Callable[[GridFunction, GridFunction], GridFunction]
    project: Optional[Callable[[np.ndarray], np.ndarray]] = None


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

    def apply(x: GridFunction) -> GridFunction:
        if x.grid != grid:
            raise ValueError("input lives on the wrong grid")
        return grid.function(apply_mat @ x.values)

    def derivative(x: GridFunction, h: GridFunction) -> GridFunction:
        return apply(h)

    def adjoint_derivative(x: GridFunction, v: GridFunction) -> GridFunction:
        if v.grid != grid:
            raise ValueError("data-space input lives on the wrong grid")
        return grid.function(adjoint_mat @ v.values)

    return ForwardModel(
        name="fredholm",
        x_grid=grid,
        y_grid=grid,
        apply=apply,
        derivative=derivative,
        adjoint_derivative=adjoint_derivative,
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
    # The diagonal of A(c) (its off-diagonals are ``off``) and the state u(c)
    # of the last coefficient, one pair per thread, so that paths solved on
    # worker threads do not evict each other.
    last = threading.local()

    def _solved(c: GridFunction) -> Tuple[np.ndarray, np.ndarray]:
        key = c.values.tobytes()
        hit = getattr(last, "state", None)
        if hit is not None and hit[0] == key:
            return hit[1], hit[2]
        if not (c.values >= 0.0).all():
            raise InadmissibleCoefficientError("coefficient must be nonnegative pointwise")
        diag = 2.0 * inv_h2 + c.values[1:-1]
        u = solve_tridiagonal(off, diag, off, base_rhs)
        last.state = (key, diag, u)
        return diag, u

    def apply(c: GridFunction) -> GridFunction:
        if c.grid != c_grid:
            raise ValueError("coefficient lives on the wrong grid")
        return u_grid.function(_solved(c)[1])

    def derivative(c: GridFunction, hdir: GridFunction) -> GridFunction:
        if hdir.grid != c_grid:
            raise ValueError("direction lives on the wrong grid")
        diag, u = _solved(c)
        v = solve_tridiagonal(off, diag, off, hdir.values[1:-1] * u)
        return u_grid.function(-v)

    def adjoint_derivative(c: GridFunction, w: GridFunction) -> GridFunction:
        if w.grid != u_grid:
            raise ValueError("data-space input lives on the wrong grid")
        diag, u = _solved(c)
        v = solve_tridiagonal(off, diag, off, w.values)
        full = np.zeros(N + 1)
        full[1:-1] = -u * v
        return c_grid.function(full)

    return ForwardModel(
        name="elliptic",
        x_grid=c_grid,
        y_grid=u_grid,
        apply=apply,
        derivative=derivative,
        adjoint_derivative=adjoint_derivative,
        project=lambda vals: np.maximum(vals, 0.0),
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


def make_noisy(y: GridFunction, spec: NoiseSpec, norm_exponent: float = 2.0):
    """Perturb exact data; returns (noisy, delta) with delta = ||noisy - y||.

    The realized noise level is reported in the experiment's data norm, i.e.
    the L^norm_exponent norm on y's grid.  Bit-reproducible for a fixed seed.
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
    noisy = y.with_values(y.values + pert)
    delta = lr_norm(y.with_values(pert), norm_exponent)
    return noisy, delta
