"""Convex penalty functionals, L^r data misfits, and index functions.

All gradients and subgradients returned here are representers with respect
to the weighted discrete L^2 inner product (``l2_inner``), so that for a
value functional J and direction d

    d/ds J(x + s d) |_{s=0} = l2_inner(grad J(x), d).

This keeps penalty subgradients, misfit gradients and operator adjoints
mutually consistent inside the descent solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Union

import numpy as np

from .grid import GridFunction, is_real, l2_inner, require


class SubgradientError(ValueError):
    """Bregman distance came out negative: xi was not a subgradient at x."""


@dataclass(frozen=True)
class QuadraticPenalty:
    """R(x) = ||x||^2 in the weighted L^2 norm."""

    kind = "quadratic"

    def value(self, x: GridFunction) -> float:
        w = x.grid.weights()
        return float((w * x.values * x.values).sum())

    def subgradient(self, x: GridFunction) -> GridFunction:
        return 2.0 * x


@dataclass(frozen=True, eq=False)
class ShiftedQuadraticPenalty:
    """R(x) = ||x - c0||^2 around a reference function c0."""

    c0: GridFunction
    kind = "shifted_quadratic"

    def value(self, x: GridFunction) -> float:
        x._check_same_grid(self.c0)
        d = x.values - self.c0.values
        return float((x.grid.weights() * d * d).sum())

    def subgradient(self, x: GridFunction) -> GridFunction:
        x._check_same_grid(self.c0)
        return 2.0 * (x - self.c0)


@dataclass(frozen=True)
class SmoothedTVPenalty:
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
    kind = "smoothed_tv"

    def __post_init__(self):
        require(self.problems(self.eps, self.mu))

    @staticmethod
    def problems(eps, mu) -> Iterator[str]:
        """Every reason these arguments make no penalty, each led by its field name."""
        if not (is_real(eps) and eps > 0):
            yield f"eps must be positive, got {eps!r}"
        if not (is_real(mu) and mu >= 0):
            yield f"mu must be nonnegative, got {mu!r}"

    def value(self, x: GridFunction) -> float:
        if x.n < 2:
            raise ValueError("smoothed TV needs at least two samples")
        v = x.values
        h = x.grid.h
        d = (v[1:] - v[:-1]) / h
        tv = float((h * np.sqrt(d * d + self.eps**2)).sum())
        tv -= self.eps
        w = x.grid.weights()
        return tv + self.mu * float((w * v * v).sum())

    def subgradient(self, x: GridFunction) -> GridFunction:
        v = x.values
        h = x.grid.h
        d = (v[1:] - v[:-1]) / h
        s = d / np.sqrt(d * d + self.eps**2)
        g = np.zeros(x.n)
        # exact discrete chain rule: backward difference of s, one-sided at ends
        g[0] = -s[0]
        g[1:-1] = s[:-1] - s[1:]
        g[-1] = s[-1]
        g /= x.grid.weights()
        return x.with_values(g + 2.0 * self.mu * v)


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
        d = v.values - self.target.values
        w = v.grid.weights()
        if self.r == 2.0:
            return float((w * d * d).sum())
        return float((w * np.abs(d) ** self.r).sum())

    def gradient(self, v: GridFunction) -> GridFunction:
        v._check_same_grid(self.target)
        d = v.values - self.target.values
        if self.r == 2.0:
            return v.with_values(2.0 * d)
        return v.with_values(self.r * np.abs(d) ** (self.r - 1.0) * np.sign(d))


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


def phi(index_fn: IndexFunction, r: float, t: float) -> float:
    """The transformed index function t -> t**r / phi(t), defined for t > 0."""
    if not t > 0:
        raise ValueError(f"phi is defined for t > 0, got {t}")
    return t**r / index_fn(t)


def phi_inverse(index_fn: IndexFunction, r: float, s: float) -> float:
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
