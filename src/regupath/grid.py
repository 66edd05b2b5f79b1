"""Uniform 1-D grids, weighted discrete L^r norms, and tridiagonal solves."""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded


class GridMismatchError(ValueError):
    """Raised when two grid functions with different layouts are combined."""


class SingularSystemError(ValueError):
    """Raised when tridiagonal elimination encounters a singular system."""


_CONVENTIONS = ("nodal", "cell", "interior")


def is_real(value) -> bool:
    """A real number with a finite float value; bools do not count."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def is_integer(value) -> bool:
    """An integer; bools do not count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require(problems) -> None:
    """Raise one ValueError listing ``problems``, if there are any."""
    problems = list(problems)
    if problems:
        raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class Grid:
    """Uniform grid on the interval [a, b].

    Three layouts are supported:

    * ``nodal``: n points including both endpoints, spacing h = (b-a)/(n-1),
      composite trapezoid quadrature weights.
    * ``cell``: n cell midpoints, spacing h = (b-a)/n, weight h per cell.
    * ``interior``: n interior points of n+1 equal subintervals (endpoints
      excluded, as for homogeneous Dirichlet unknowns), spacing
      h = (b-a)/(n+1), uniform weight h per point.  The uniform weights are
      what make the discrete elliptic adjoint identity exact; they sum to
      n*h rather than b-a, i.e. the two boundary half-cells are dropped.
    """

    n: int
    a: float = 0.0
    b: float = 1.0
    convention: str = "nodal"

    def __post_init__(self):
        if self.convention not in _CONVENTIONS:
            raise ValueError(f"unknown grid convention {self.convention!r}")
        min_n = 2 if self.convention == "nodal" else 1
        if self.n < min_n:
            raise ValueError(f"{self.convention} grid needs at least {min_n} points, got {self.n}")
        if not self.b > self.a:
            raise ValueError(f"empty interval [{self.a}, {self.b}]")

    @property
    def h(self) -> float:
        length = self.b - self.a
        if self.convention == "nodal":
            return length / (self.n - 1)
        if self.convention == "cell":
            return length / self.n
        return length / (self.n + 1)

    def points(self) -> np.ndarray:
        if self.convention == "nodal":
            return np.linspace(self.a, self.b, self.n)
        if self.convention == "cell":
            return self.a + (np.arange(self.n) + 0.5) * self.h
        return self.a + (np.arange(self.n) + 1.0) * self.h

    def weights(self) -> np.ndarray:
        return _weights(self)

    def function(self, values) -> "GridFunction":
        return GridFunction(self, np.asarray(values, dtype=float))

    def zeros(self) -> "GridFunction":
        return self.function(np.zeros(self.n))

    def from_callable(self, fn) -> "GridFunction":
        return self.function(fn(self.points()))


@functools.lru_cache(maxsize=64)
def _weights(grid: Grid) -> np.ndarray:
    if grid.convention == "nodal":
        w = np.full(grid.n, grid.h)
        w[0] = w[-1] = 0.5 * grid.h
    else:
        w = np.full(grid.n, grid.h)
    w.setflags(write=False)
    return w


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real samples on a uniform grid; immutable after construction."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.shape[0] != self.grid.n:
            raise ValueError(f"expected {self.grid.n} samples, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.grid.n

    def points(self) -> np.ndarray:
        return self.grid.points()

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.grid, values)

    def _check_same_grid(self, other: "GridFunction"):
        if self.grid != other.grid:
            raise GridMismatchError(f"grid mismatch: {self.grid} vs {other.grid}")

    def __add__(self, other):
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other):
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        if isinstance(scalar, GridFunction):
            raise TypeError("pointwise products are taken on raw values, not grid functions")
        return GridFunction(self.grid, float(scalar) * self.values)

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.grid, -self.values)


def lr_norm(f: GridFunction, r: float) -> float:
    """Weighted discrete L^r norm (sum_i w_i |f_i|^r)^(1/r), r > 1."""
    if not r > 1.0:
        raise ValueError(f"lr_norm requires r > 1, got {r}")
    v = f.values
    if not np.all(np.isfinite(v)):
        raise ValueError("lr_norm: non-finite input values")
    w = f.grid.weights()
    if r == 2.0:
        return float(np.sqrt(np.sum(w * v * v)))
    return float(np.sum(w * np.abs(v) ** r) ** (1.0 / r))


def l2_inner(f: GridFunction, g: GridFunction) -> float:
    """Weighted discrete L^2 inner product on a common grid.

    The product f*g is formed first so the result is exactly symmetric.
    """
    f._check_same_grid(g)
    return float(np.sum(f.grid.weights() * (f.values * g.values)))


@dataclass(frozen=True, eq=False)
class TridiagonalSystem:
    """Tridiagonal matrix with sub-, main and super-diagonals."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def __post_init__(self):
        sub = np.asarray(self.sub, dtype=float)
        diag = np.asarray(self.diag, dtype=float)
        sup = np.asarray(self.sup, dtype=float)
        n = diag.shape[0]
        if sub.shape != (max(n - 1, 0),) or sup.shape != (max(n - 1, 0),):
            raise ValueError("off-diagonals must have length n-1")
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "sup", sup)

    @property
    def n(self) -> int:
        return self.diag.shape[0]


def solve_tridiagonal(system: TridiagonalSystem, rhs: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system; raises SingularSystemError on breakdown."""
    rhs = np.asarray(rhs, dtype=float)
    n = system.n
    if rhs.shape != (n,):
        raise ValueError(f"rhs length {rhs.shape} does not match system size {n}")
    if n == 1:
        if system.diag[0] == 0.0:
            raise SingularSystemError("zero pivot in 1x1 system")
        return rhs / system.diag
    ab = np.zeros((3, n))
    ab[0, 1:] = system.sup
    ab[1, :] = system.diag
    ab[2, :-1] = system.sub
    try:
        return solve_banded((1, 1), ab, rhs, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
