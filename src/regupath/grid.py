"""Uniform 1-D grids, their weighted L^r sums, roots and inner product, and tridiagonal solves.

The LAPACK routines of the package (``dgtsv`` here, ``dpbtrf``, ``dpbtrs``
and ``dgbsv`` for ``models``) are read from ``lapack()``, which loads
scipy's compiled wrapper module alone at the first band or tridiagonal
solve: neither the ``scipy.linalg`` package init nor, except on Windows,
scipy's own runs.  A run that only descends never imports scipy.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec

import numpy as np


def _load_flapack():
    """scipy's compiled LAPACK wrappers, ``scipy.linalg._flapack``, without the scipy packages' init.

    ``scipy.linalg.lapack`` re-exports these same wrapper objects, but its
    import runs the whole ``scipy.linalg`` init (about 24 MB and 0.25 s per
    process), and ``import scipy`` alone adds about 0.6 MB and 6-12 ms that
    no routine here uses.  So scipy's directory is read from its import
    spec, which runs no package code.  Only on Windows is scipy imported
    first: its ``_distributor_init`` adds the DLL directory the extension
    needs; on Linux the extension's RPATH finds scipy's OpenBLAS without it.
    An already imported module is reused.  Otherwise the extension file in
    scipy's ``linalg`` directory is run by the standard extension loader;
    CPython files such a module in ``sys.modules`` as it runs it, so a later
    ``import scipy.linalg`` reuses it.  With no file found, the normal import
    of the same module is the fallback.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    if sys.platform == "win32":
        import scipy  # its DLL set-up
    scipy_dir = find_spec("scipy").submodule_search_locations[0]
    finder = FileFinder(os.path.join(scipy_dir, "linalg"), (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        from scipy.linalg import _flapack

        return _flapack
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# scipy's LAPACK wrapper module, loaded by ``_load_flapack`` at the first call
# and kept.  Threads that race on the first call may each load it; a second
# load of the extension hands back the same routine objects, so either serves.
lapack = functools.cache(_load_flapack)


class GridMismatchError(ValueError):
    """Raised when two grid functions with different layouts are combined."""


class SingularSystemError(ValueError):
    """Raised when tridiagonal elimination encounters a singular system."""


_CONVENTIONS = ("nodal", "interior")


def is_real(value) -> bool:
    """A real number with a finite float value; bools do not count.  An exact float skips the ABC test."""
    if type(value) is float:
        return math.isfinite(value)
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def is_integer(value) -> bool:
    """An integer; bools do not count.  An exact int skips the ABC test."""
    if type(value) is int:
        return True
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
    """Real samples on a uniform grid; immutable, and checked finite once, at construction."""

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

    @classmethod
    def _adopt(cls, grid: Grid, values: np.ndarray) -> "GridFunction":
        """A GridFunction that takes over ``values`` itself: no copy and no check, and ``values`` turns read-only.

        For the solver's record only.  ``values`` must be a finite float
        array of grid.n samples that nothing writes to again.
        """
        values.setflags(write=False)
        gf = object.__new__(cls)
        object.__setattr__(gf, "grid", grid)
        object.__setattr__(gf, "values", values)
        return gf

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


def lr_power_sum(w: np.ndarray, v: np.ndarray, r: float) -> float:
    """The weighted power sum sum_i w_i |v_i|^r; the one summation order of every L^r sum.

    ``np.add.reduce(a)`` is the reduction ``a.sum()`` runs, without its wrapper.
    """
    if r == 2.0:
        return float(np.add.reduce(w * v * v))
    return float(np.add.reduce(w * np.abs(v) ** r))


def lr_root(s: float, r: float) -> float:
    """The r-th root of a power sum s, so that lr_root(lr_power_sum(w, v, r), r) is the L^r norm."""
    return math.sqrt(s) if r == 2.0 else s ** (1.0 / r)


def weighted_inner(w: np.ndarray, f: np.ndarray, g: np.ndarray) -> float:
    """The weighted sum sum_i w_i (f_i g_i); f*g is formed first so the result is exactly symmetric."""
    return float(np.add.reduce(w * (f * g)))


def lr_norm(f: GridFunction, r: float) -> float:
    """Weighted discrete L^r norm (sum_i w_i |f_i|^r)^(1/r), r > 1.

    f is finite, as every GridFunction is, so no value is scanned here; a
    sum beyond the largest float gives inf, without an overflow warning.
    """
    if not r > 1.0:
        raise ValueError(f"lr_norm requires r > 1, got {r}")
    with np.errstate(over="ignore"):
        return lr_root(lr_power_sum(f.grid.weights(), f.values, r), r)


def l2_inner(f: GridFunction, g: GridFunction) -> float:
    """Weighted discrete L^2 inner product on a common grid."""
    f._check_same_grid(g)
    return weighted_inner(f.grid.weights(), f.values, g.values)


def solve_tridiagonal(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with sub-, main and super-diagonals ``sub``, ``diag``, ``sup``.

    LAPACK ``dgtsv`` (Gaussian elimination with partial pivoting) works on
    copies of the three diagonals and the right-hand side; it is the routine
    ``scipy.linalg.solve_banded`` calls for one sub- and one super-diagonal,
    without the banded copy.  Lengths that do not fit an n-unknown system
    (n >= 2) raise ValueError; a zero pivot raises SingularSystemError.
    """
    x, info = lapack().dgtsv(sub, diag, sup, rhs)[3:]
    if info > 0:
        raise SingularSystemError(f"singular matrix: zero pivot in row {info}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgtsv")
    return x
