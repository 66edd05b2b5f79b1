import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from regupath import (
    Fidelity,
    Grid,
    GridMismatchError,
    QuadraticPenalty,
    ShiftedQuadraticPenalty,
    SmoothedTVPenalty,
    SubgradientError,
    bregman_distance,
    l2_inner,
    lr_norm,
    power_index,
)

from regupath.penalties import _EPS_RANGE, bregman_terms

from oracles import dense_tridiagonal, directional_derivative, phi, phi_inverse


def _smooth_probe(grid, gen, slope=2.0):
    # derivative bounded away from zero so the TV smoothing kink is not hit
    t = grid.points()
    return grid.function(np.sin(2.0 * np.pi * t) + slope * t + 0.3 * gen.normal() * t * (1 - t))


# ---------------------------------------------------------------------------
# penalty values

def test_quadratic_value_zero_at_origin():
    assert QuadraticPenalty().value(Grid(33).zeros()) == 0.0


def test_shifted_value_zero_at_reference():
    g = Grid(41)
    c0 = g.function(g.points())
    pen = ShiftedQuadraticPenalty(c0)
    assert pen.value(g.function(g.points())) == 0.0


def test_shifted_rejects_mismatched_grid():
    pen = ShiftedQuadraticPenalty(Grid(11).zeros())
    with pytest.raises(GridMismatchError):
        pen.value(Grid(13).zeros())


def test_smoothed_tv_of_constant_is_mu_norm():
    g = Grid(101)
    x = g.function(np.full(101, 3.0))
    assert SmoothedTVPenalty(eps=1e-4, mu=0.0).value(x) == pytest.approx(0.0, abs=1e-15)
    assert SmoothedTVPenalty(eps=1e-4, mu=0.5).value(x) == pytest.approx(0.5 * 9.0, rel=1e-12)


def test_smoothed_tv_of_unit_step():
    # total variation of a unit jump is the jump height
    g = Grid(2001)
    vals = np.where(g.points() < 0.5, 0.0, 1.0)
    v = SmoothedTVPenalty(eps=1e-6, mu=0.0).value(g.function(vals))
    assert v == pytest.approx(1.0, abs=1e-4)


# ---------------------------------------------------------------------------
# subgradients

def test_the_smoothed_tv_eps_range_ends_where_its_floats_do():
    # eps**2 of the value overflows just above the range, and the Hessian's
    # (eps**2)**1.5 underflows to 0 just below it
    lo, hi = _EPS_RANGE
    above, below = math.nextafter(hi, math.inf), math.nextafter(lo, 0.0)
    assert hi * hi < math.inf == above * above
    assert (lo * lo) ** 1.5 > 0.0 == (below * below) ** 1.5
    grid = Grid(2)  # h = 1, the widest cell
    for eps in (lo, hi):
        pen = SmoothedTVPenalty(eps=eps)
        for v in (np.zeros(2), np.array([0.0, 1.0])):
            assert math.isfinite(pen.value_on(grid, v))
            assert np.isfinite(pen.subgradient_on(grid, v)).all()
            with np.errstate(over="ignore"):  # as the solver calls it: a curvature beyond floats is 0
                assert all(np.isfinite(band).all() for band in pen.hessian(grid, v))
    for eps in (above, below, 1e-200, 1e300):
        with pytest.raises(ValueError, match=r"eps must lie in \[1.351817985853457e-108, 1.3407807929942596e\+154\]"):
            SmoothedTVPenalty(eps=eps)


def test_quadratic_subgradient_gives_exact_bregman_identity(rng):
    g = Grid(57)
    pen = QuadraticPenalty()
    x = g.function(rng.normal(size=57))
    xi = pen.subgradient(x)
    for _ in range(5):
        xbar = g.function(rng.normal(size=57))
        d = bregman_distance(pen, xi, xbar, x)
        assert d == pytest.approx(lr_norm(xbar - x, 2.0) ** 2, rel=1e-11, abs=1e-13)


def test_shifted_subgradient_zero_at_reference():
    g = Grid(23)
    c0 = g.function(g.points() ** 2)
    xi = ShiftedQuadraticPenalty(c0).subgradient(c0)
    assert np.max(np.abs(xi.values)) == 0.0


@pytest.mark.parametrize("mu", [0.0, 0.7])
def test_smoothed_tv_gradient_matches_finite_differences(rng, mu):
    g = Grid(81)
    pen = SmoothedTVPenalty(eps=1e-4, mu=mu)
    x = _smooth_probe(g, rng)
    xi = pen.subgradient(x)
    value = lambda vals: pen.value(g.function(vals))
    for _ in range(5):
        direction = rng.normal(size=81)
        fd = directional_derivative(value, x.values, direction, 1e-8)
        exact = l2_inner(xi, g.function(direction))
        assert fd == pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize(
    "make_pen",
    [
        lambda g: QuadraticPenalty(),
        lambda g: ShiftedQuadraticPenalty(g.function(g.points())),
        lambda g: SmoothedTVPenalty(eps=1e-4, mu=0.3),
        lambda g: SmoothedTVPenalty(eps=0.5, mu=0.0),
    ],
)
def test_hessian_matches_central_differences_of_subgradient(rng, make_pen):
    # the Euclidean Hessian is the derivative of W * subgradient, column by column
    g = Grid(41)
    pen = make_pen(g)
    x = _smooth_probe(g, rng)
    diag, sub = pen.hessian(g, x.values)
    hess = dense_tridiagonal(sub, diag, sub)
    w = g.weights()
    step = 1e-7
    for k in range(g.n):
        e = np.zeros(g.n)
        e[k] = step
        fd = w * (pen.subgradient(g.function(x.values + e)).values
                  - pen.subgradient(g.function(x.values - e)).values) / (2.0 * step)
        assert np.abs(fd - hess[:, k]).max() <= 1e-6 * np.abs(hess[:, k]).max(), k


@pytest.mark.parametrize(
    "make_pen",
    [
        lambda g: QuadraticPenalty(),
        lambda g: ShiftedQuadraticPenalty(g.function(g.points())),
        lambda g: SmoothedTVPenalty(eps=1e-3, mu=0.01),
    ],
)
def test_subgradient_inequality_on_1000_random_pairs(make_pen):
    gen = np.random.default_rng(99)
    g = Grid(31)
    pen = make_pen(g)
    for _ in range(1000):
        x = g.function(gen.normal(size=31))
        xbar = g.function(gen.normal(size=31))
        gap = pen.value(xbar) - pen.value(x) - l2_inner(pen.subgradient(x), xbar - x)
        assert gap >= -1e-10


@pytest.mark.parametrize(
    "make_pen",
    [
        lambda g: QuadraticPenalty(),
        lambda g: ShiftedQuadraticPenalty(g.function(np.sin(g.points()))),
        lambda g: SmoothedTVPenalty(eps=1e-3, mu=0.2),
    ],
)
def test_value_is_midpoint_convex_on_random_pairs(make_pen):
    gen = np.random.default_rng(31337)
    g = Grid(29)
    pen = make_pen(g)
    for _ in range(200):
        x = g.function(gen.normal(size=29))
        xbar = g.function(gen.normal(size=29))
        mid = 0.5 * (x + xbar)
        assert pen.value(mid) <= 0.5 * pen.value(x) + 0.5 * pen.value(xbar) + 1e-12


# ---------------------------------------------------------------------------
# Bregman distance

def test_bregman_zero_at_equal_points(rng):
    g = Grid(19)
    pen = SmoothedTVPenalty(eps=1e-3, mu=0.1)
    x = _smooth_probe(g, rng)
    assert bregman_distance(pen, pen.subgradient(x), x, x) == 0.0


def test_bregman_quadratic_closed_form(rng):
    g = Grid(25)
    pen = QuadraticPenalty()
    x = g.function(rng.normal(size=25))
    xbar = g.function(rng.normal(size=25))
    d = bregman_distance(pen, pen.subgradient(x), xbar, x)
    assert d == pytest.approx(lr_norm(xbar - x, 2.0) ** 2, rel=1e-11)


def test_bregman_smoothed_tv_cross_checked_against_definition(rng):
    g = Grid(61)
    pen = SmoothedTVPenalty(eps=1e-3, mu=0.05)
    x = _smooth_probe(g, rng)
    xbar = _smooth_probe(g, rng, slope=1.0)
    xi = pen.subgradient(x)
    d = bregman_distance(pen, xi, xbar, x)
    # independent re-evaluation straight from the defining formula
    ref = pen.value(xbar) - pen.value(x) - float(
        np.sum(g.weights() * xi.values * (xbar.values - x.values))
    )
    assert d == pytest.approx(ref, rel=1e-12, abs=1e-14)
    assert d >= 0.0


def test_bregman_flags_non_subgradient():
    g = Grid(15)
    pen = QuadraticPenalty()
    x = g.function(np.ones(15))
    bogus = g.function(np.full(15, 50.0))  # far too steep to support the parabola
    xbar = g.function(np.full(15, 2.0))
    with pytest.raises(SubgradientError):
        bregman_distance(pen, bogus, xbar, x)


@pytest.mark.parametrize("pen", [QuadraticPenalty(), SmoothedTVPenalty()], ids=["quadratic", "smoothed_tv"])
def test_bregman_accepts_true_subgradients_at_large_scale(pen):
    # At |x| ~ 1e4 the three terms are ~1e8 and cancel to a distance of
    # ~1e-12; their rounding reaches -9e-9, which an absolute threshold of
    # -1e-10 read as a violation in about half of these draws.
    g = Grid(101)
    rng = np.random.default_rng(0)
    for _ in range(200):
        xv = 1e4 * rng.normal(size=g.n)
        x, xbar = g.function(xv), g.function(xv + 1e-6 * rng.normal(size=g.n))
        assert bregman_distance(pen, pen.subgradient(x), xbar, x) >= 0.0


_BREGMAN_PENALTIES = {
    "quadratic": lambda grid: QuadraticPenalty(),
    "shifted_quadratic": lambda grid: ShiftedQuadraticPenalty(grid.function(grid.points())),
    "smoothed_tv": lambda grid: SmoothedTVPenalty(eps=1e-2, mu=0.1),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_BREGMAN_PENALTIES)), st.integers(3, 20), st.integers(1, 6),
       st.integers(0, 2**32 - 1), st.data())
def test_bregman_terms_over_arrays_is_bregman_distance_row_by_row(kind, n, rows, seed, data):
    # the terms of each row's (xbar, x) stacked into arrays give each row's
    # distance bit for bit, the sign of a zero included; one row whose xi is
    # no subgradient fails the whole array
    g = Grid(n)
    pen = _BREGMAN_PENALTIES[kind](g)
    gen = np.random.default_rng(seed)
    pairs = [(g.function(gen.normal(size=n)), g.function(gen.normal(size=n))) for _ in range(rows)]
    xis = [pen.subgradient(x) for _, x in pairs]
    want = np.array([bregman_distance(pen, xi, xbar, x) for xi, (xbar, x) in zip(xis, pairs)])

    def terms(xis):
        return [np.array(v) for v in zip(*[(pen.value(xbar), pen.value(x), l2_inner(xi, xbar - x))
                                          for xi, (xbar, x) in zip(xis, pairs)])]

    got = bregman_terms(*terms(xis))
    assert got.tobytes() == want.tobytes()

    bad = data.draw(st.integers(0, rows - 1))
    xbar, x = pairs[bad]
    step = xbar - x
    # <xi', xbar - x> exceeds <xi, xbar - x> by 2 (D + 1): the distance reads -D - 2
    xis[bad] = xis[bad] + (2.0 * (want[bad] + 1.0) / l2_inner(step, step)) * step
    with pytest.raises(SubgradientError):
        bregman_distance(pen, xis[bad], xbar, x)
    with pytest.raises(SubgradientError):
        bregman_terms(*terms(xis))


def test_bregman_distance_rejects_a_nodal_and_an_interior_grid_of_equal_length():
    nodal, interior = Grid(9), Grid(9, convention="interior")
    pen = QuadraticPenalty()
    x = nodal.function(np.linspace(0.0, 1.0, 9))
    with pytest.raises(GridMismatchError):
        bregman_distance(pen, pen.subgradient(x), interior.function(x.values), x)
    with pytest.raises(GridMismatchError):
        bregman_distance(pen, interior.function(x.values), x, x)


# ---------------------------------------------------------------------------
# fidelity

def test_fidelity_zero_at_target(rng):
    g = Grid(33)
    target = g.function(rng.normal(size=33))
    fid = Fidelity(1.01, target)
    assert fid.value(target) == 0.0
    assert np.max(np.abs(fid.gradient(target).values)) == 0.0


def test_fidelity_positive_away_from_target(rng):
    g = Grid(33)
    target = g.function(rng.normal(size=33))
    fid = Fidelity(1.5, target)
    other = g.function(target.values + 1e-3)
    assert fid.value(other) > 0.0


def test_fidelity_quadratic_gradient_closed_form(rng):
    g = Grid(27)
    target = g.function(rng.normal(size=27))
    fid = Fidelity(2.0, target)
    v = g.function(rng.normal(size=27))
    np.testing.assert_allclose(fid.gradient(v).values, 2.0 * (v.values - target.values))


def test_fidelity_value_matches_lr_norm_power(rng):
    g = Grid(21)
    target = g.function(rng.normal(size=21))
    v = g.function(rng.normal(size=21))
    for r in (1.01, 1.3, 2.0, 2.5):
        fid = Fidelity(r, target)
        assert fid.value(v) == pytest.approx(lr_norm(v - target, r) ** r, rel=1e-12)


@pytest.mark.parametrize("r", [1.01, 1.5, 2.0, 3.0])
def test_fidelity_gradient_matches_finite_differences(rng, r):
    g = Grid(41)
    target = g.function(rng.normal(size=41))
    fid = Fidelity(r, target)
    # keep residual components away from zero where |.|^(r-1) loses smoothness
    v = g.function(target.values + rng.uniform(0.5, 1.5, size=41) * rng.choice([-1, 1], size=41))
    grad = fid.gradient(v)
    value = lambda vals: fid.value(g.function(vals))
    for _ in range(5):
        direction = rng.normal(size=41)
        fd = directional_derivative(value, v.values, direction, 1e-6)
        assert fd == pytest.approx(l2_inner(grad, g.function(direction)), rel=1e-5)


def test_fidelity_rejects_bad_exponent():
    g = Grid(5)
    with pytest.raises(ValueError):
        Fidelity(1.0, g.zeros())


# ---------------------------------------------------------------------------
# index functions

def test_phi_linear_index_cancels():
    idx = power_index(1.0, 1.0)
    assert phi(idx, 2.0, 0.3) == pytest.approx(0.3, rel=1e-14)


def test_phi_sqrt_index_analytic():
    idx = power_index(1.0, 0.5)
    assert phi(idx, 2.0, 4.0) == pytest.approx(8.0, rel=1e-14)


def test_phi_direct_evaluation_and_monotonicity():
    idx = power_index(2.0, 0.5)
    r = 1.01
    assert phi(idx, r, 0.7) == pytest.approx(0.7**r / (2.0 * np.sqrt(0.7)), rel=1e-13)
    ladder = np.geomspace(1e-4, 1e2, 25)
    vals = [phi(idx, r, t) for t in ladder]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_phi_rejects_nonpositive_argument():
    idx = power_index(1.0, 1.0)
    with pytest.raises(ValueError):
        phi(idx, 2.0, 0.0)
    with pytest.raises(ValueError):
        phi_inverse(idx, 2.0, -1.0)


def test_phi_inverse_linear_index_identity():
    idx = power_index(1.0, 1.0)
    for s in (1e-3, 0.5, 7.0):
        assert phi_inverse(idx, 2.0, s) == pytest.approx(s, rel=1e-9)


def test_phi_inverse_sqrt_index_analytic():
    idx = power_index(1.0, 0.5)
    assert phi_inverse(idx, 2.0, 8.0) == pytest.approx(4.0, rel=1e-9)


def test_phi_inverse_is_right_inverse_on_log_ladder():
    for idx in (power_index(1.0, 1.0), power_index(3.0, 0.6)):
        for r in (1.5, 2.0):
            for s in np.geomspace(1e-8, 1e4, 13):
                t = phi_inverse(idx, r, s)
                assert phi(idx, r, t) == pytest.approx(s, rel=1e-10)


def test_phi_inverse_unbounded_error_when_preimage_underflows():
    # r = 1.01 with a linear index makes t -> t^0.01: inverting 1e-8 would
    # need t = 1e-800, far below float range, so the bracket search must fail
    idx = power_index(1.0, 1.0)
    with pytest.raises(ValueError, match="bracket"):
        phi_inverse(idx, 1.01, 1e-8)


def test_inverse_power_ratio_decreases_toward_zero():
    # the ratio [Phi^{-1}(s)]^r / s must decrease strictly as s shrinks
    idx = power_index(1.0, 0.5)
    r = 2.0
    ladder = [10.0**-k for k in range(1, 7)]
    ratios = [phi_inverse(idx, r, s) ** r / s for s in ladder]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.05 * ratios[0]


def test_index_function_validation():
    with pytest.raises(ValueError):
        power_index(-1.0, 0.5)
    with pytest.raises(ValueError):
        power_index(1.0, 1.5)


def test_power_index_vanishes_at_zero_and_increases():
    idx = power_index(2.5, 0.8)
    assert idx(0.0) == 0.0
    ladder = np.linspace(0.1, 5.0, 20)
    vals = [idx(t) for t in ladder]
    assert all(a < b for a, b in zip(vals, vals[1:]))


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-6, 1e5), st.sampled_from([1.5, 2.0]), st.floats(0.2, 1.0), st.floats(0.1, 10.0))
def test_phi_inverse_roundtrip_property(s, r, exponent, scale):
    idx = power_index(scale, exponent)
    t = phi_inverse(idx, r, s)
    assert phi(idx, r, t) == pytest.approx(s, rel=1e-9)
