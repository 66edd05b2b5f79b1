"""Convex penalty functionals, L^r data misfits, and index functions.

All gradients and subgradients returned here are representers with respect
to the weighted discrete L^2 inner product (``l2_inner``), so that for a
value functional J and direction d

    d/ds J(x + s d) |_{s=0} = l2_inner(grad J(x), d).

This keeps penalty subgradients, misfit gradients and operator adjoints
mutually consistent inside the solver.  Penalty Hessians, in contrast, are
Euclidean: ``hessian(grid, v)`` returns the diagonal and sub-diagonal of the
symmetric tridiagonal matrix of second derivatives of R in the raw sample
values, the form the Gauss-Newton systems of the solver add to.

Each functional is implemented once, on raw sample arrays: a penalty's
``value_on(grid, v)``, ``subgradient_on(grid, v)`` and ``hessian(grid, v)``
take the samples v of a function on ``grid``, and the misfit's
``value_on(v)`` and ``gradient_on(v)`` the samples of a function on its
target's grid.  The GridFunction methods ``value``, ``subgradient`` and
``gradient`` check the grids and wrap these; the solver calls the array
forms directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Tuple, Union

import numpy as np

from .grid import Grid, GridFunction, is_real, l2_inner, require


class SubgradientError(ValueError):
    """Bregman distance came out negative: xi was not a subgradient at x."""


class _GridFunctionForms:
    """A penalty's ``value`` and ``subgradient``, each one wrapper over its array form."""

    def value(self, x: GridFunction) -> float:
        self._check_grid(x)
        return self.value_on(x.grid, x.values)

    def subgradient(self, x: GridFunction) -> GridFunction:
        self._check_grid(x)
        return x.with_values(self.subgradient_on(x.grid, x.values))

    def _check_grid(self, x: GridFunction) -> None:
        """Raise GridMismatchError when x cannot be an argument; any grid can by default."""


@dataclass(frozen=True)
class QuadraticPenalty(_GridFunctionForms):
    """R(x) = ||x||^2 in the weighted L^2 norm."""

    def value_on(self, grid: Grid, v: np.ndarray) -> float:
        return float((grid.weights() * v * v).sum())

    def subgradient_on(self, grid: Grid, v: np.ndarray) -> np.ndarray:
        return 2.0 * v

    def hessian(self, grid: Grid, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return 2.0 * grid.weights(), np.zeros(grid.n - 1)


@dataclass(frozen=True, eq=False)
class ShiftedQuadraticPenalty(_GridFunctionForms):
    """R(x) = ||x - c0||^2 around a reference function c0."""

    c0: GridFunction

    def _check_grid(self, x: GridFunction) -> None:
        x._check_same_grid(self.c0)

    def value_on(self, grid: Grid, v: np.ndarray) -> float:
        d = v - self.c0.values
        return float((grid.weights() * d * d).sum())

    def subgradient_on(self, grid: Grid, v: np.ndarray) -> np.ndarray:
        return 2.0 * (v - self.c0.values)

    def hessian(self, grid: Grid, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return 2.0 * grid.weights(), np.zeros(grid.n - 1)


@dataclass(frozen=True)
class SmoothedTVPenalty(_GridFunctionForms):
    """Smoothed total variation plus a small quadratic term.

    R(x) = sum_i h * sqrt(d_i^2 + eps^2) - eps + mu*||x||^2

    with d_i the forward differences of x scaled by 1/h on a grid of [0, 1].
    The offset eps, the smoothed variation of a constant over the unit
    interval, makes R of a constant function exactly mu*||x||^2.  For
    eps > 0 the functional is differentiable everywhere, so the gradient
    is the unique subgradient.
    """

    eps: float = 1e-4
    mu: float = 0.0

    def __post_init__(self):
        require(self.problems(self.eps, self.mu))

    @staticmethod
    def problems(eps, mu) -> Iterator[str]:
        """Every reason these arguments make no penalty, each led by its field name."""
        if not (is_real(eps) and eps > 0):
            yield f"eps must be positive, got {eps!r}"
        if not (is_real(mu) and mu >= 0):
            yield f"mu must be nonnegative, got {mu!r}"

    def value_on(self, grid: Grid, v: np.ndarray) -> float:
        if grid.n < 2:
            raise ValueError("smoothed TV needs at least two samples")
        h = grid.h
        d = (v[1:] - v[:-1]) / h
        tv = float((h * np.sqrt(d * d + self.eps**2)).sum())
        tv -= self.eps
        w = grid.weights()
        return tv + self.mu * float((w * v * v).sum())

    def subgradient_on(self, grid: Grid, v: np.ndarray) -> np.ndarray:
        h = grid.h
        d = (v[1:] - v[:-1]) / h
        s = d / np.sqrt(d * d + self.eps**2)
        g = np.zeros(grid.n)
        # exact discrete chain rule: backward difference of s, one-sided at ends
        g[0] = -s[0]
        g[1:-1] = s[:-1] - s[1:]
        g[-1] = s[-1]
        g /= grid.weights()
        return g + 2.0 * self.mu * v

    def hessian(self, grid: Grid, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # D^T diag(c) D + 2 mu W, with D the unscaled forward difference and
        # c = d(s_i)/d(v_{i+1} - v_i) = eps^2 / (h (d^2 + eps^2)^(3/2))
        h = grid.h
        d = (v[1:] - v[:-1]) / h
        c = self.eps**2 / (h * (d * d + self.eps**2) ** 1.5)
        diag = 2.0 * self.mu * grid.weights()
        diag[:-1] += c
        diag[1:] += c
        return diag, -c


Penalty = Union[QuadraticPenalty, ShiftedQuadraticPenalty, SmoothedTVPenalty]


def bregman_distance(pen: Penalty, xi: GridFunction, xbar: GridFunction, x: GridFunction) -> float:
    """D_xi R(xbar, x) = R(xbar) - R(x) - <xi, xbar - x>.

    The caller is responsible for xi being a subgradient of the penalty at
    x; a result below -1e-10 signals that the precondition was violated.
    """
    d = pen.value(xbar) - pen.value(x) - l2_inner(xi, xbar - x)
    if d < -1e-10:
        raise SubgradientError(f"negative Bregman distance {d}: xi is not a subgradient at x")
    return max(d, 0.0)


@dataclass(frozen=True, eq=False)
class Fidelity:
    """Data misfit v -> ||v - target||_r^r on the target's grid, 1 < r < inf."""

    r: float
    target: GridFunction

    def __post_init__(self):
        require(self.problems(self.r))

    @staticmethod
    def problems(r) -> Iterator[str]:
        """Why ``r`` is no misfit exponent, led by the field name."""
        if not (is_real(r) and r > 1.0):
            yield f"r must lie in (1, inf), got {r!r}"

    def value(self, v: GridFunction) -> float:
        v._check_same_grid(self.target)
        return self.value_on(v.values)

    def value_on(self, v: np.ndarray) -> float:
        d = v - self.target.values
        w = self.target.grid.weights()
        if self.r == 2.0:
            return float((w * d * d).sum())
        return float((w * np.abs(d) ** self.r).sum())

    def gradient(self, v: GridFunction) -> GridFunction:
        v._check_same_grid(self.target)
        return v.with_values(self.gradient_on(v.values))

    def gradient_on(self, v: np.ndarray) -> np.ndarray:
        d = v - self.target.values
        if self.r == 2.0:
            return 2.0 * d
        return self.r * np.abs(d) ** (self.r - 1.0) * np.sign(d)


@dataclass(frozen=True)
class IndexFunction:
    """Concave index function phi: [0, inf) -> [0, inf), phi(0) = 0."""

    fn: Callable[[float], float]
    label: str = "custom"

    def __call__(self, t: float) -> float:
        return float(self.fn(t))


def power_index(scale: float, exponent: float = 1.0) -> IndexFunction:
    """phi(t) = scale * t**exponent with 0 < exponent <= 1, scale > 0."""
    if not scale > 0:
        raise ValueError("index function scale must be positive")
    if not 0 < exponent <= 1:
        raise ValueError("index function exponent must lie in (0, 1]")
    return IndexFunction(lambda t: scale * t**exponent, label=f"{scale:g}*t^{exponent:g}")
