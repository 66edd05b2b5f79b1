"""Uniform 1-D grids, weighted discrete L^r norms, and tridiagonal solves."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv


class GridMismatchError(ValueError):
    """Raised when two grid functions with different layouts are combined."""


class SingularSystemError(ValueError):
    """Raised when tridiagonal elimination encounters a singular system."""


_CONVENTIONS = ("nodal", "interior")


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
    """Uniform grid on the interval [0, 1].

    Two layouts are supported:

    * ``nodal``: n points including both endpoints, spacing h = 1/(n-1),
      composite trapezoid quadrature weights.
    * ``interior``: n interior points of n+1 equal subintervals (endpoints
      excluded, as for homogeneous Dirichlet unknowns), spacing
      h = 1/(n+1), uniform weight h per point.  The uniform weights are
      what make the discrete elliptic adjoint identity exact; they sum to
      n*h rather than 1, i.e. the two boundary half-cells are dropped.
    """

    n: int
    convention: str = "nodal"

    def __post_init__(self):
        if self.convention not in _CONVENTIONS:
            raise ValueError(f"unknown grid convention {self.convention!r}")
        min_n = 2 if self.convention == "nodal" else 1
        if self.n < min_n:
            raise ValueError(f"{self.convention} grid needs at least {min_n} points, got {self.n}")
        w = np.full(self.n, self.h)
        if self.convention == "nodal":
            w[0] = w[-1] = 0.5 * self.h
        w.setflags(write=False)
        object.__setattr__(self, "_weights", w)  # read on every objective evaluation

    @property
    def h(self) -> float:
        if self.convention == "nodal":
            return 1.0 / (self.n - 1)
        return 1.0 / (self.n + 1)

    def points(self) -> np.ndarray:
        if self.convention == "nodal":
            return np.linspace(0.0, 1.0, self.n)
        return (np.arange(self.n) + 1.0) * self.h

    def weights(self) -> np.ndarray:
        return self._weights

    def function(self, values) -> "GridFunction":
        return GridFunction(self, values)

    def zeros(self) -> "GridFunction":
        return self.function(np.zeros(self.n))

    def from_callable(self, fn) -> "GridFunction":
        return self.function(fn(self.points()))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real samples on a uniform grid; immutable after construction."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)  # a private copy
        if vals.ndim != 1 or vals.shape[0] != self.grid.n:
            raise ValueError(f"expected {self.grid.n} samples, got shape {vals.shape}")
        if not np.isfinite(vals).all():
            raise ValueError("grid function values must be finite")
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
        if self.grid is not other.grid and self.grid != other.grid:
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


def lr_norm(f: GridFunction, r: float) -> float:
    """Weighted discrete L^r norm (sum_i w_i |f_i|^r)^(1/r), r > 1.

    A sum beyond the largest float gives inf, without an overflow warning.
    """
    return lr_norm_on(f.grid, f.values, r)


def lr_norm_on(grid: Grid, v: np.ndarray, r: float) -> float:
    """``lr_norm`` of the samples v of a function on ``grid``."""
    if not r > 1.0:
        raise ValueError(f"lr_norm requires r > 1, got {r}")
    if not np.isfinite(v).all():
        raise ValueError("lr_norm: non-finite input values")
    w = grid.weights()
    with np.errstate(over="ignore"):
        if r == 2.0:
            return float(np.sqrt((w * v * v).sum()))
        return float((w * np.abs(v) ** r).sum() ** (1.0 / r))


def l2_inner(f: GridFunction, g: GridFunction) -> float:
    """Weighted discrete L^2 inner product on a common grid.

    The product f*g is formed first so the result is exactly symmetric.
    """
    f._check_same_grid(g)
    return float((f.grid.weights() * (f.values * g.values)).sum())


def solve_tridiagonal(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with sub-, main and super-diagonals ``sub``, ``diag``, ``sup``.

    LAPACK ``dgtsv`` (Gaussian elimination with partial pivoting) works on
    copies of the three diagonals and the right-hand side; it is the routine
    ``scipy.linalg.solve_banded`` calls for one sub- and one super-diagonal,
    without the banded copy.  Lengths that do not fit an n-unknown system
    (n >= 2) raise ValueError; a zero pivot raises SingularSystemError.
    """
    x, info = dgtsv(sub, diag, sup, rhs)[3:]
    if info > 0:
        raise SingularSystemError(f"singular matrix: zero pivot in row {info}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgtsv")
    return x
