import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy.linalg import solve_banded

from regupath import (
    Grid,
    GridFunction,
    GridMismatchError,
    SingularSystemError,
    l2_inner,
    lr_norm,
    solve_tridiagonal,
)

from oracles import dense_tridiagonal, highres_lr_norm


# ---------------------------------------------------------------------------
# grids and grid functions

def test_grid_conventions_spacing():
    assert Grid(401).h == pytest.approx(1.0 / 400)
    assert Grid(400, convention="interior").h == pytest.approx(1.0 / 401)
    assert Grid(399, convention="interior").h == pytest.approx(1.0 / 400)


def test_nodal_points_include_endpoints():
    g = Grid(5)
    assert g.points()[0] == 0.0 and g.points()[-1] == 1.0


def test_interior_points_exclude_endpoints():
    g = Grid(3, convention="interior")
    np.testing.assert_allclose(g.points(), [0.25, 0.5, 0.75])


def test_weights_sum_to_interval_length():
    assert np.sum(Grid(17).weights()) == pytest.approx(1.0)
    # interior grids drop the two boundary half-cells (uniform weights)
    for n in (9, 12):
        g = Grid(n, convention="interior")
        assert np.sum(g.weights()) == pytest.approx(n * g.h)


def test_gridfunction_rejects_nonfinite():
    g = Grid(4)
    with pytest.raises(ValueError):
        g.function([0.0, np.nan, 1.0, 2.0])
    with pytest.raises(ValueError):
        g.function([0.0, np.inf, 1.0, 2.0])


def test_gridfunction_values_immutable():
    f = Grid(4).function([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        f.values[0] = 9.0


def test_arithmetic_requires_matching_grids():
    f = Grid(5).function(np.ones(5))
    g = Grid(6).function(np.ones(6))
    with pytest.raises(GridMismatchError):
        _ = f + g
    h = Grid(5, convention="interior").function(np.ones(5))
    with pytest.raises(GridMismatchError):
        _ = f - h


# ---------------------------------------------------------------------------
# lr_norm

def test_lr_norm_zero_function():
    f = Grid(33).zeros()
    assert lr_norm(f, 1.01) == 0.0


def test_lr_norm_constant_one_is_one():
    for n in (11, 101, 400):
        f = Grid(n).function(np.ones(n))
        assert lr_norm(f, 2.0) == pytest.approx(1.0, rel=1e-14)


def test_lr_norm_linear_function_matches_quadrature_oracle():
    # reference value from a 1e5-point trapezoid rule; agreement to O(h^2)
    g = Grid(401)
    f = g.from_callable(lambda t: t)
    ref = highres_lr_norm(lambda t: t, 2.0)
    assert abs(lr_norm(f, 2.0) - ref) <= g.h**2


def test_lr_norm_requires_r_above_one():
    f = Grid(5).function(np.ones(5))
    with pytest.raises(ValueError):
        lr_norm(f, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40),
    st.sampled_from([1.01, 1.5, 2.0, 3.0]),
    st.floats(-100.0, 100.0),
)
def test_lr_norm_absolutely_homogeneous(vals, r, lam):
    f = Grid(len(vals)).function(vals)
    assert lr_norm(lam * f, r) == pytest.approx(abs(lam) * lr_norm(f, r), rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 30),
    st.sampled_from([1.01, 1.5, 2.0, 3.0]),
    st.integers(0, 2**32 - 1),
)
def test_lr_norm_triangle_inequality(n, r, seed):
    gen = np.random.default_rng(seed)
    g = Grid(n)
    f1 = g.function(gen.normal(size=n))
    f2 = g.function(gen.normal(size=n))
    lhs = lr_norm(f1 + f2, r)
    rhs = lr_norm(f1, r) + lr_norm(f2, r)
    assert lhs <= rhs + 1e-12 * max(1.0, rhs)


def test_lr_norm_keeps_the_plain_sum_on_finite_sums(rng):
    g = Grid(37)
    v = rng.normal(size=37)
    f = g.function(v)
    w = g.weights()
    assert lr_norm(f, 2.0) == float(np.sqrt(np.sum(w * v * v)))
    assert lr_norm(f, 1.01) == float(np.sum(w * np.abs(v) ** 1.01) ** (1.0 / 1.01))


# ---------------------------------------------------------------------------
# l2_inner

def test_l2_inner_zero_and_constant():
    g = Grid(21)
    f = g.function(np.sin(g.points()))
    assert l2_inner(f, g.zeros()) == 0.0
    one = g.function(np.ones(21))
    assert l2_inner(one, one) == pytest.approx(1.0, rel=1e-14)


def test_l2_inner_symmetric_and_consistent_with_norm(rng):
    g = Grid(37)
    f1 = g.function(rng.normal(size=37))
    f2 = g.function(rng.normal(size=37))
    assert l2_inner(f1, f2) == l2_inner(f2, f1)
    assert l2_inner(f1, f1) == pytest.approx(lr_norm(f1, 2.0) ** 2, rel=1e-13)


def test_l2_inner_rejects_mismatched_grids():
    with pytest.raises(GridMismatchError):
        l2_inner(Grid(5).zeros(), Grid(7).zeros())


# ---------------------------------------------------------------------------
# tridiagonal solves

def test_solve_identity_diagonal(rng):
    n = 12
    rhs = rng.normal(size=n)
    np.testing.assert_allclose(solve_tridiagonal(np.zeros(n - 1), np.ones(n), np.zeros(n - 1), rhs), rhs)


def test_solve_laplacian_exact_on_linear_solution():
    # -u'' = 0 with u(0)=1, u(1)=6 folded into the rhs: u(t) = 1 + 5t at nodes
    N = 40
    h = 1.0 / N
    n = N - 1
    off = np.full(n - 1, -1.0 / h**2)
    rhs = np.zeros(n)
    rhs[0] = 1.0 / h**2
    rhs[-1] = 6.0 / h**2
    u = solve_tridiagonal(off, np.full(n, 2.0 / h**2), off, rhs)
    t = (np.arange(n) + 1) * h
    np.testing.assert_allclose(u, 1.0 + 5.0 * t, rtol=1e-12)


def _random_dominant(gen, n):
    sub = gen.uniform(-1.0, 1.0, size=n - 1)
    sup = gen.uniform(-1.0, 1.0, size=n - 1)
    row_off = np.zeros(n)
    row_off[1:] += np.abs(sub)
    row_off[:-1] += np.abs(sup)
    diag = (row_off + gen.uniform(0.5, 1.5, size=n)) * gen.choice([-1.0, 1.0], size=n)
    return sub, diag, sup


def test_solve_random_dominant_matches_dense_oracle(rng):
    n = 50
    sys = _random_dominant(rng, n)
    rhs = rng.normal(size=n)
    x = solve_tridiagonal(*sys, rhs)
    x_ref = np.linalg.solve(dense_tridiagonal(*sys), rhs)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_solve_reproduces_rhs_on_1000_random_dominant_systems():
    gen = np.random.default_rng(1234)
    for _ in range(1000):
        n = int(gen.integers(2, 24))
        sys = _random_dominant(gen, n)
        rhs = gen.normal(size=n)
        x = solve_tridiagonal(*sys, rhs)
        defect = np.max(np.abs(dense_tridiagonal(*sys) @ x - rhs))
        assert defect <= 1e-10 * max(np.max(np.abs(rhs)), 1e-30)


def test_solve_matches_solve_banded_bit_for_bit():
    # dgtsv is the routine solve_banded((1, 1), ...) runs, minus the banded copy
    gen = np.random.default_rng(99)
    pivoting = 0
    for k in range(400):
        n = int(gen.integers(2, 60))
        if k % 2:
            sub, diag, sup = _random_dominant(gen, n)
        else:  # small diagonal: elimination swaps rows
            sub, diag, sup = gen.uniform(-1, 1, n - 1), gen.uniform(-0.1, 0.1, n), gen.uniform(-1, 1, n - 1)
            pivoting += bool(abs(sub[0]) > abs(diag[0]))
        rhs = gen.normal(size=n)
        ab = np.zeros((3, n))
        ab[0, 1:] = sup
        ab[1, :] = diag
        ab[2, :-1] = sub
        inputs = [a.copy() for a in (sub, diag, sup, rhs)]
        x = solve_tridiagonal(sub, diag, sup, rhs)
        assert np.array_equal(x, solve_banded((1, 1), ab, rhs))
        for before, after in zip(inputs, (sub, diag, sup, rhs)):
            assert np.array_equal(before, after)  # the inputs are left alone
    assert pivoting > 150


def test_singular_system_raises():
    with pytest.raises(SingularSystemError):
        solve_tridiagonal(np.zeros(2), np.zeros(3), np.zeros(2), np.ones(3))
    # [[1, 1], [1, 1]]: the zero pivot appears only after elimination
    with pytest.raises(SingularSystemError, match="row 2"):
        solve_tridiagonal(np.ones(1), np.ones(2), np.ones(1), np.ones(2))
    # lengths that fit no system are ValueErrors, not singular systems
    for sub, rhs in ((np.zeros(2), np.ones(2)), (np.zeros(1), np.ones(3))):
        with pytest.raises(ValueError) as excinfo:
            solve_tridiagonal(sub, np.ones(3), np.zeros(2), rhs)
        assert not isinstance(excinfo.value, SingularSystemError)


# ---------------------------------------------------------------------------
# CSV serialization

def test_write_csv_roundtrips_exact_floats(tmp_path):
    from regupath.experiments import _write_rows

    g = Grid(7)
    f = g.function(np.sin(7.0 * g.points()) / 3.0)
    path = tmp_path / "f.csv"
    _write_rows(path, ["t", "value"], zip(f.points(), f.values))
    text = path.read_text(encoding="utf-8")
    assert "\r" not in text
    assert text.splitlines()[0] == "t,value"
    loaded = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(loaded[:, 0], f.points())
    np.testing.assert_array_equal(loaded[:, 1], f.values)
