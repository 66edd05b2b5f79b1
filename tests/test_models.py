import dataclasses
import gc
import math
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import regupath.models
from regupath.models import gauss_newton_step
from regupath import (
    Fidelity,
    ForwardModel,
    Grid,
    GridMap,
    InadmissibleCoefficientError,
    NoiseOverflowError,
    NoiseSpec,
    QuadraticPenalty,
    SingularSystemError,
    SmoothedTVPenalty,
    SolveOptions,
    compute_alpha_path,
    elliptic_model,
    fredholm_model,
    l2_inner,
    lr_norm,
    make_noisy,
    solve_tikhonov,
)

from oracles import (dense_gauss_newton, dense_tridiagonal, elliptic_jacobian, estimate_kappa,
                     fredholm_apply_matrix, gauss_newton_matrix)


def _elliptic(N=100, g0=1.0, g1=6.0):
    u_grid = Grid(N - 1, convention="interior")
    f = u_grid.from_callable(lambda t: 100.0 * np.exp(-10.0 * (t - 0.5) ** 2))
    return elliptic_model(N, g0, g1, f)


# ---------------------------------------------------------------------------
# integral-equation model

def test_fredholm_zero_maps_to_zero():
    model = fredholm_model(51)
    y = model.apply(model.x_grid.zeros())
    assert np.max(np.abs(y.values)) == 0.0


def test_fredholm_kernel_symmetry(rng):
    model = fredholm_model(101)
    g = model.x_grid
    for _ in range(10):
        x = g.function(rng.normal(size=101))
        z = g.function(rng.normal(size=101))
        assert l2_inner(model.apply(x), z) == pytest.approx(
            l2_inner(x, model.apply(z)), rel=1e-10, abs=1e-14
        )


def _assembled_matrix(model):
    """The model's matrix, column by column from its action on unit vectors."""
    g = model.x_grid
    return np.column_stack([model.apply(g.function(e)).values for e in np.eye(g.n)])


def test_fredholm_matrix_selfadjoint_up_to_weights():
    model = fredholm_model(80)
    w = model.x_grid.weights()
    weighted = w[:, None] * _assembled_matrix(model)
    assert np.max(np.abs(weighted - weighted.T)) <= 1e-12


def test_fredholm_matches_independent_quadrature(rng):
    model = fredholm_model(64)
    ref = fredholm_apply_matrix(64)
    x = rng.normal(size=64)
    np.testing.assert_allclose(model.apply(model.x_grid.function(x)).values, ref @ x, rtol=1e-13)


def _greens_identity_error(n):
    # the kernel is 40x the Green's function of -d^2/dt^2 with Dirichlet ends,
    # so -y'' should approximate 40x in the interior
    model = fredholm_model(n)
    g = model.x_grid
    t = g.points()
    x = g.function(np.sin(3.0 * np.pi * t) + t * (1 - t))
    y = model.apply(x).values
    h = g.h
    second = (y[:-2] - 2.0 * y[1:-1] + y[2:]) / h**2
    return np.max(np.abs(-second - 40.0 * x.values[1:-1]))


def test_fredholm_greens_function_identity_second_order():
    # the sampled kernel with trapezoid weights inverts the 3-point Laplacian
    # exactly, so the defect sits at roundoff scale, far inside the O(h^2) bound
    for n in (201, 401):
        h = 1.0 / (n - 1)
        assert _greens_identity_error(n) <= 40.0 * h**2
        assert _greens_identity_error(n) <= 1e-8
    model = fredholm_model(201)
    y = model.apply(model.x_grid.from_callable(lambda t: np.sin(np.pi * t)))
    assert y.values[0] == pytest.approx(0.0, abs=1e-14)
    assert y.values[-1] == pytest.approx(0.0, abs=1e-14)


def test_fredholm_linear_derivative_is_apply(rng):
    model = fredholm_model(41)
    g = model.x_grid
    x = g.function(rng.normal(size=41))
    h = g.function(rng.normal(size=41))
    # self-adjoint in the weighted inner product: the adjoint is the same matrix product
    np.testing.assert_array_equal(model.adjoint_derivative(x, h).values, model.apply(h).values)
    # exact linearity: no second-order Taylor remainder
    s = 1e-3
    lhs = model.apply(x + s * h).values - model.apply(x).values - s * model.apply(h).values
    assert np.max(np.abs(lhs)) <= 1e-14


@pytest.mark.parametrize("n", [3, 63, 64, 65, 128, 129, 401])
def test_fredholm_matrix_is_bit_identical_across_its_row_blocks(n):
    # The matrix is built 64 rows at a time.  Applying it to unit vectors
    # reads each entry back exactly (one product by 1 plus zeros), so the
    # blocks and their edges must give the oracle's entries bit for bit.
    assert np.array_equal(_assembled_matrix(fredholm_model(n)), fredholm_apply_matrix(n))


def test_a_fredholm_model_holds_one_matrix_and_frees_it_when_dropped(call_log):
    # tracemalloc sees numpy's data buffers, so these counts are exact bytes.
    # One whole-matrix expression would peak at about 3 matrices; the row
    # blocks add a few 64 x n temporaries to the one kept matrix.  After a
    # standalone solve, dropping the model frees its matrix: the warm-start
    # memo keeps only the end point's O(n) arrays.  A smoothed-TV path solves
    # every step on the saddle route, and none of them keeps a factor: its B
    # is not diagonal and never recurs, so the model holds no more than it was
    # built with, where each kept factor would add 4n floats and a key of
    # 2n - 1.
    cap = regupath.models._FACTOR_CAP
    regupath.grid.lapack()  # loaded before the count: the wrapper module would stay after the model is dropped
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        n = 1601
        model = fredholm_model(n)
        built, peak = tracemalloc.get_traced_memory()
        assert peak - before < 1.25 * 8 * n * n
        assert 8 * n * n <= built - before < 8 * n * n + 100 * 8 * n
        fid = Fidelity(2.0, model.y_grid.from_callable(lambda t: t * (1.0 - t)))
        rec = solve_tikhonov(model, fid, QuadraticPenalty(), 1e-3)
        assert rec.converged
        del model, fid, rec
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - before < 100_000

        n = 401
        model = fredholm_model(n)
        fid = Fidelity(2.0, model.y_grid.from_callable(lambda t: np.sin(3.0 * np.pi * t)))
        solved = call_log(regupath.models, "_saddle_step")["_saddle_step"]
        compute_alpha_path(model, fid, SmoothedTVPenalty(eps=1e-3), 1e-3, 0.5, 19, SolveOptions(max_iters=10))
        assert len(solved) > 1.5 * cap
        held = tracemalloc.get_traced_memory()[0] - before
        assert held < 8 * n * n + 100 * 8 * n
        del model, fid
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - before < 100_000
    finally:
        if started:
            tracemalloc.stop()


# ---------------------------------------------------------------------------
# elliptic coefficient-to-state model

def test_elliptic_linear_state_exact():
    # c = 0, f = 0: the finite-difference solution of -u'' = 0 is exact
    N = 50
    u_grid = Grid(N - 1, convention="interior")
    model = elliptic_model(N, 1.0, 6.0, u_grid.zeros())
    u = model.apply(model.x_grid.zeros())
    np.testing.assert_allclose(u.values, 1.0 + 5.0 * u_grid.points(), rtol=1e-12)


def test_elliptic_rejects_negative_coefficient():
    model = _elliptic()
    c = model.x_grid.function(np.full(model.x_grid.n, -0.5))
    with pytest.raises(InadmissibleCoefficientError):
        model.apply(c)


def test_elliptic_state_is_reused_and_never_mixed(monkeypatch):
    # In one thread, an adjoint after an apply at the same coefficient reuses
    # its state: one solve for u(c), one for the adjoint.  The state is keyed
    # on a private copy of the coefficient's values: a writable array equal
    # to the last coefficient is a hit and solves nothing, and the same array
    # changed in place is a miss and solves once.
    model = _elliptic(N=60)
    t = model.x_grid.points()
    coeffs = [model.x_grid.function(1.0 + t), model.x_grid.function(2.0 + np.sin(3.0 * t))]
    w = model.y_grid.function(np.cos(model.y_grid.points()))
    fresh = [(_elliptic(N=60).apply(c).values, _elliptic(N=60).adjoint_derivative(c, w).values) for c in coeffs]
    solves = []
    solve = regupath.models.solve_tridiagonal
    monkeypatch.setattr(regupath.models, "solve_tridiagonal", lambda *a: solves.append(1) or solve(*a))
    c = coeffs[0]
    assert np.array_equal(model.apply(c).values, fresh[0][0])
    assert np.array_equal(model.adjoint_derivative(c, w).values, fresh[0][1])
    assert len(solves) == 2
    v = c.values.copy()
    assert np.array_equal(model.apply.on_values(v), fresh[0][0])
    assert len(solves) == 2
    v[:] = coeffs[1].values
    assert np.array_equal(model.apply.on_values(v), fresh[1][0])
    assert len(solves) == 3

    # Two threads share the model and alternate apply and adjoint on their own
    # coefficient, so each call finds the other thread's state: it may solve
    # again, but its value is always a fresh model's.
    turn = threading.Barrier(2, timeout=30)
    rounds = 4

    def worker(k):
        c, got = coeffs[k], []
        for _ in range(rounds):
            for op in (lambda: model.apply(c), lambda: model.adjoint_derivative(c, w)):
                for slot in (0, 1):
                    if slot == k:
                        got.append(op().values)
                    turn.wait()
        return got

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = [f.result() for f in [pool.submit(worker, k) for k in (0, 1)]]
    for k, got in enumerate(results):
        for i, values in enumerate(got):
            assert np.array_equal(values, fresh[k][i % 2])


def test_elliptic_adjoint_identity(rng):
    model = _elliptic()
    c_grid, u_grid = model.x_grid, model.y_grid
    t = c_grid.points()
    c = c_grid.function(np.sin(np.pi * t) + t + 0.5)
    jac = elliptic_jacobian(model, c)
    for _ in range(20):
        h = c_grid.function(rng.normal(size=c_grid.n))
        w = u_grid.function(rng.normal(size=u_grid.n))
        lhs = l2_inner(u_grid.function(jac @ h.values), w)
        rhs = l2_inner(h, model.adjoint_derivative(c, w))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-14)


def test_elliptic_derivative_matches_forward_difference(rng):
    model = _elliptic()
    c_grid = model.x_grid
    t = c_grid.points()
    c = c_grid.function(1.0 + t * (1 - t))
    jac = elliptic_jacobian(model, c)
    s = 1e-6
    for _ in range(5):
        h = c_grid.function(rng.normal(size=c_grid.n))
        fd = (1.0 / s) * (model.apply(c + s * h) - model.apply(c))
        dv = model.y_grid.function(jac @ h.values)
        denom = lr_norm(dv, 2.0)
        assert lr_norm(fd - dv, 2.0) <= 1e-5 * denom


def test_elliptic_taylor_remainder_second_order():
    model = _elliptic()
    c_grid = model.x_grid
    t = c_grid.points()
    c = c_grid.function(1.0 + np.sin(np.pi * t))
    h = c_grid.function(np.cos(2.0 * np.pi * t) + 0.3)
    dv = model.y_grid.function(elliptic_jacobian(model, c) @ h.values)

    def remainder(s):
        lhs = model.apply(c + s * h) - model.apply(c) - s * dv
        return lr_norm(lhs, 2.0)

    ratio = remainder(1e-2) / remainder(5e-3)
    assert ratio == pytest.approx(4.0, rel=0.2)


def test_elliptic_monotone_in_coefficient(rng):
    # raising c pointwise cannot raise u when f >= 0 and boundary data >= 0
    model = _elliptic()
    c_grid = model.x_grid
    for _ in range(10):
        base = np.abs(rng.normal(size=c_grid.n))
        bump = np.abs(rng.normal(size=c_grid.n))
        u_low = model.apply(c_grid.function(base))
        u_high = model.apply(c_grid.function(base + bump))
        assert np.all(u_high.values <= u_low.values + 1e-12)


def test_elliptic_projection_clips_at_zero():
    model = _elliptic()
    vals = np.array([-1.0, 0.5, -0.2])
    np.testing.assert_array_equal(model.project(vals), [0.0, 0.5, 0.0])


@pytest.mark.parametrize("alpha", [1e-3, 1e-5, 1e-8])
@pytest.mark.parametrize("penalty", [QuadraticPenalty(), SmoothedTVPenalty(eps=0.5, mu=1e-3)],
                         ids=["quadratic", "smoothed_tv"])
def test_gauss_newton_solve_matches_dense_oracle(rng, alpha, penalty):
    # both models on random free masks (the banded (s, w, z) system, which
    # the solver asks of a Fredholm model, as it has no bound, only for a B
    # that is not diagonal) and on an all-true one (the congruent band solve,
    # or that same system for the Fredholm model with smoothed TV), against
    # the dense J of the oracles; the smallest legal sizes leave band rows 2
    # and 3 short or empty
    for model in (_elliptic(N=60), fredholm_model(41), _elliptic(N=4), fredholm_model(3), fredholm_model(4)):
        grid = model.x_grid
        x = grid.function(1.0 + rng.uniform(0.0, 3.0, size=grid.n))
        jac = fredholm_apply_matrix(grid.n) if model.name == "fredholm" else elliptic_jacobian(model, x)
        for free in [rng.uniform(size=grid.n) > 0.3 for _ in range(3)] + [np.ones(grid.n, dtype=bool)]:
            diag, sub = penalty.hessian(grid, x.values)
            diag, sub = alpha * diag, alpha * sub * (free[1:] & free[:-1])
            rhs = rng.normal(size=grid.n)
            want = dense_gauss_newton(model, jac, free, diag, sub, rhs)
            got = gauss_newton_step(model.jacobian(x.values), free, diag, sub, rhs)
            assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max(), model.name

    # At n = 401 both band solves are held to a backward-error bound; the
    # Fredholm smoothed-TV step, on the saddle route, meets it with room to
    # spare.  Each congruent step solves M y = P^T rhs, M = P^T A P with
    # A = 2 (J D_f)^T W (J D_f) + B, and returns s = P y.  For the Fredholm
    # step P = T, the identity on the ends and h^-2 tridiag(-1, 2, -1)
    # inside; for the all-free elliptic step P = diag(sigma) T,
    # sigma = (1, 1/u, 1) and T = [1; A(c); 1].  Backward
    # stability gives (M + E) y = P^T rhs with ||E|| <= c u ||P||^2 ||A||, as
    # ||M|| <= ||P||^2 ||A||, ||B|| <= ||A|| and || |P| || = ||P||: the band
    # Cholesky and its two triangular solves (kd = 3) give 3 (kd + 2) (kd + 1)
    # = 60, forming M (at most 7 terms of 5 factors per entry, || |B| || <=
    # 3 ||B||) 3 * 12 = 36, so c = 96 < 100.  Then s solves
    # (A + P^-T E P^-1) s = rhs, and ||A s - rhs|| <= c u cond(P)^2 ||A|| ||s||.
    for model in (fredholm_model(401), _elliptic(N=400)):
        grid = model.x_grid
        x = grid.function(1.0 + rng.uniform(0.0, 3.0, size=grid.n))
        off = np.full(grid.n - 1, -1.0 / grid.h**2)
        off[[0, -1]] = 0.0
        t_diag = np.full(grid.n, 2.0 / grid.h**2)
        sigma = np.ones(grid.n)
        if model.name == "fredholm":
            jac = fredholm_apply_matrix(grid.n)
        else:
            jac = elliptic_jacobian(model, x)
            t_diag += x.values
            sigma[1:-1] = 1.0 / model.apply(x).values
        t_diag[[0, -1]] = 1.0
        congruence = sigma[:, None] * dense_tridiagonal(off, t_diag, off)
        bound = 100 * (np.finfo(float).eps / 2) * np.linalg.cond(congruence) ** 2
        free = np.ones(grid.n, dtype=bool)
        diag, sub = penalty.hessian(grid, x.values)
        lhs = gauss_newton_matrix(model, jac, free, alpha * diag, alpha * sub)
        for _ in range(3):
            rhs = rng.normal(size=grid.n)
            got = gauss_newton_step(model.jacobian(x.values), free, alpha * diag, alpha * sub, rhs)
            backward = np.linalg.norm(lhs @ got - rhs) / (np.linalg.norm(lhs, 2) * np.linalg.norm(got))
            assert backward <= bound, model.name


_band_entries = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


def _band_vectors(n):
    """(t_diag, t_off, diag, sub) of size n, n - 1, n, n - 1; sub is all zero (a diagonal B) on purpose."""
    entries = [st.lists(_band_entries, min_size=size, max_size=size) for size in (n, n - 1, n, n - 1)]
    entries[3] = st.one_of(st.just([0.0] * (n - 1)), entries[3])
    return st.tuples(*entries)


def _diagonal_b_example(n):
    k = np.arange(n, dtype=float)
    return (list(2.0 + k), list(-1.5 + 0.5 * k[:-1]), list(3.0 - 0.7 * k), [0.0] * (n - 1))


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 12).flatmap(_band_vectors))
@example(_diagonal_b_example(3))
@example(_diagonal_b_example(4))
@example(_diagonal_b_example(12))
def test_sandwich_band_is_the_lower_band_of_t_b_t(vectors):
    # a general T, its end off-diagonals nonzero too, against the dense
    # product, for a tridiagonal B and for a diagonal one, whose band has no
    # fourth row.  Each entry of T B T sums at most 7 terms of 3 factors, so
    # any evaluation order rounds each term at most 2 + 6 times: both the
    # closed form and the dense product lie within gamma_8 |T| |B| |T| of the
    # exact entry, and the computed |T| |B| |T| (nonnegative terms) is at
    # least 1 - gamma_6 times its own.  Entries far from zero keep every
    # product off the subnormals.
    t_diag, t_off, diag, sub = (np.array(v) for v in vectors)
    n = t_diag.size
    t = dense_tridiagonal(t_off, t_diag, t_off)
    b = dense_tridiagonal(sub, diag, sub)
    want = t @ b @ t
    scale = np.abs(t) @ np.abs(b) @ np.abs(t)
    band = regupath.models._sandwich_band(t_diag, t_off, diag, sub)
    u = np.finfo(float).eps / 2
    gamma_8, gamma_6 = 8 * u / (1 - 8 * u), 6 * u / (1 - 6 * u)
    for k in range(4):
        got, ref, tol = band[k, :n - k], np.diag(want, -k), 2 * gamma_8 / (1 - gamma_6) * np.diag(scale, -k)
        assert (np.abs(got - ref) <= tol).all(), k
        assert (band[k, n - k:] == 0.0).all()
    if not sub.any():
        assert (band[3] == 0.0).all()


def test_elliptic_gauss_newton_solves_the_saddle_system_when_u_f_has_a_zero(rng, call_log):
    # a fixed interior coordinate, or a zero state (f = 0, g0 = g1 = 0),
    # leaves diag(u_f) singular: the step is one dgbsv on the (s, w, z)
    # system, with no dpbtrf and no warning from a division by u
    solves = call_log(regupath.grid.lapack(), "dpbtrf", "dgbsv")
    zero_state = elliptic_model(60, 0.0, 0.0, Grid(59, convention="interior").zeros())
    for model, fixed in ((_elliptic(N=60), [30]), (zero_state, [])):
        grid = model.x_grid
        x = grid.function(1.0 + rng.uniform(0.0, 3.0, size=grid.n))
        free = np.ones(grid.n, dtype=bool)
        free[fixed] = False
        diag, sub = SmoothedTVPenalty(eps=0.5, mu=1e-3).hessian(grid, x.values)
        diag, sub = 1e-5 * diag, 1e-5 * sub * (free[1:] & free[:-1])
        rhs = rng.normal(size=grid.n)
        want = dense_gauss_newton(model, elliptic_jacobian(model, x), free, diag, sub, rhs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gauss_newton_step(model.jacobian(x.values), free, diag, sub, rhs)
        assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()
        assert (len(solves["dpbtrf"]), len(solves["dgbsv"])) == (0, 1)
        solves["dgbsv"].clear()


def test_a_fredholm_system_that_is_not_positive_definite_raises_and_keeps_no_factor(rng, call_log):
    # B = -2W makes the first pivot negative: dpbtrf stops there, the step
    # raises, and the model keeps nothing for that B, so the same system
    # asked again is factored again
    model = fredholm_model(41)
    grid = model.x_grid
    diag, sub = QuadraticPenalty().hessian(grid, grid.zeros().values)
    free, rhs = np.ones(grid.n, dtype=bool), rng.normal(size=grid.n)
    jac = model.jacobian(grid.zeros().values)
    factored = call_log(regupath.grid.lapack(), "dpbtrf")["dpbtrf"]
    for attempt in (1, 2):
        with pytest.raises(SingularSystemError, match="not positive definite"):
            gauss_newton_step(jac, free, -diag, sub, rhs)
        assert len(factored) == attempt
    gauss_newton_step(jac, free, diag, sub, rhs)
    gauss_newton_step(jac, free, diag, sub, rhs)
    assert len(factored) == 3


def test_a_fredholm_factor_is_kept_only_for_a_diagonal_b(rng, call_log):
    # two B with one diagonal and different sub-diagonals are two systems.
    # The diagonal one, as the quadratic penalties give, is kept and solved
    # again by dpbtrs alone; the other, as smoothed TV gives, depends on x
    # and never recurs, so it takes the saddle route (dgbsv) at each step
    # and is never factored.  Each solves to a fresh model's bits.
    model = fredholm_model(41)
    grid = model.x_grid
    x, free, rhs = grid.zeros().values, np.ones(grid.n, dtype=bool), rng.normal(size=grid.n)
    jac = model.jacobian(x)
    diag = rng.uniform(1.0, 2.0, grid.n)
    subs = (np.zeros(grid.n - 1), rng.uniform(-0.1, 0.1, grid.n - 1))
    solves = call_log(regupath.grid.lapack(), "dpbtrf", "dgbsv")
    for sub in subs:
        gauss_newton_step(jac, free, diag, sub, rhs)
    assert list(jac.factors) == [diag.tobytes() + subs[0].tobytes()]
    for sub, counts in zip(subs, ((0, 0), (0, 1))):
        want = gauss_newton_step(fredholm_model(41).jacobian(x), free, diag, sub, rhs)
        for calls in solves.values():
            calls.clear()
        assert gauss_newton_step(jac, free, diag, sub, rhs).tobytes() == want.tobytes()
        assert tuple(len(calls) for calls in solves.values()) == counts
    assert len(jac.factors) == 1


def test_a_fredholm_model_shared_by_threads_solves_each_b_to_a_fresh_models_bits(rng, monkeypatch):
    # four threads on one model cycle through the same four B from different
    # starts, each B five times running, with the cap at 3, so inserts,
    # clears and hits interleave: a thread may factor again, but never
    # solves with another B's factor
    monkeypatch.setattr(regupath.models, "_FACTOR_CAP", 3)
    model = fredholm_model(41)
    grid = model.x_grid
    x, free, rhs = grid.zeros().values, np.ones(grid.n, dtype=bool), rng.normal(size=grid.n)
    diag, sub = QuadraticPenalty().hessian(grid, x)
    alphas = [0.5**i for i in range(4)]
    fresh = {alpha: gauss_newton_step(fredholm_model(41).jacobian(x), free, alpha * diag, sub, rhs).tobytes()
             for alpha in alphas}

    def worker(k):
        order = alphas[k:] + alphas[:k]
        return all(gauss_newton_step(model.jacobian(x), free, alpha * diag, sub, rhs).tobytes() == fresh[alpha]
                   for _ in range(20) for alpha in order for _ in range(5))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(worker, k) for k in range(4)]
            assert all(future.result(timeout=60) for future in futures)
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# the model contract

@pytest.mark.parametrize("field", ["apply", "adjoint_derivative"])
def test_forward_model_rejects_a_map_without_array_form(field):
    assert [f.name for f in dataclasses.fields(ForwardModel)] == [
        "name", "apply", "adjoint_derivative", "project", "jacobian"]
    grid = Grid(11)
    maps = {
        "apply": GridMap(lambda x: x, grid, grid),
        "adjoint_derivative": GridMap(lambda x, w: w, grid, grid, grid),
    }
    ForwardModel(name="identity", **maps)
    with pytest.raises(TypeError, match=f"^{field} must be a GridMap"):
        ForwardModel(name="identity", **{**maps, field: lambda *fs: maps[field](*fs)})


def test_forward_model_grids_are_read_from_apply():
    model = _elliptic(N=20)
    assert model.x_grid == Grid(21, convention="nodal") and model.x_grid is model.apply.in_grids[0]
    assert model.y_grid == Grid(19, convention="interior") and model.y_grid is model.apply.out_grid
    other = Grid(7)
    swapped = dataclasses.replace(model, apply=GridMap(lambda v: v[:7], other, model.y_grid))
    assert (swapped.x_grid, swapped.y_grid) == (model.y_grid, other)


# ---------------------------------------------------------------------------
# noise generation

def test_gaussian_noise_hits_exact_level():
    g = Grid(399, convention="interior")
    y = g.from_callable(lambda t: 1.0 + 5.0 * t)
    noisy, delta = make_noisy(y, NoiseSpec(kind="gaussian", level=0.0025, seed=3), 2.0)
    assert lr_norm(noisy - y, 2.0) == pytest.approx(0.0025, rel=1e-13)
    assert delta == pytest.approx(0.0025, rel=1e-13)


def test_impulsive_noise_count_and_amplitude():
    g = Grid(401)
    y = g.zeros()
    spec = NoiseSpec(kind="impulsive", fraction=0.02, amplitude=1.0, seed=11)
    noisy, delta = make_noisy(y, spec, 1.01)
    perturbed = np.nonzero(noisy.values)[0]
    assert len(perturbed) == math.ceil(0.02 * 401) == 9
    assert set(np.abs(noisy.values[perturbed])) == {1.0}
    assert delta == pytest.approx(lr_norm(noisy - y, 1.01), rel=1e-14)


def test_noise_is_reproducible_bitwise():
    g = Grid(200)
    y = g.from_callable(np.sin)
    spec = NoiseSpec(kind="gaussian", level=0.1, seed=42)
    a, da = make_noisy(y, spec)
    b, db = make_noisy(y, spec)
    np.testing.assert_array_equal(a.values, b.values)
    assert da == db
    c, _ = make_noisy(y, NoiseSpec(kind="gaussian", level=0.1, seed=43))
    assert np.any(c.values != a.values)


def test_noise_beyond_float_range_raises():
    g = Grid(50)
    y = g.from_callable(np.sin)
    for spec in (NoiseSpec(kind="gaussian", level=1e308, seed=1),
                 NoiseSpec(kind="impulsive_gaussian", fraction=0.5, amplitude=1e308, level=1e308, seed=1)):
        with pytest.raises(NoiseOverflowError, match="beyond the float range"):
            make_noisy(y, spec)
    # an impulse of the largest size still fits
    noisy, _ = make_noisy(y, NoiseSpec(kind="impulsive", fraction=0.1, amplitude=1e308, seed=1))
    assert np.abs(noisy.values).max() == pytest.approx(1e308)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(kind="gaussian", level=0.0)
    with pytest.raises(ValueError):
        NoiseSpec(kind="impulsive", fraction=0.0, amplitude=1.0)
    with pytest.raises(ValueError):
        NoiseSpec(kind="impulsive", fraction=0.5, amplitude=-1.0)
    with pytest.raises(ValueError):
        NoiseSpec(kind="poisson", level=1.0)
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        NoiseSpec(kind="gaussian", level=1.0, seed=-1)


# ---------------------------------------------------------------------------
# kappa estimation

def test_kappa_zero_candidates_gives_one(rng):
    g = Grid(64)
    noise = g.function(rng.normal(size=64))
    assert estimate_kappa(noise, [g.zeros()]) == 1.0
    assert estimate_kappa(noise, []) == 1.0


def test_kappa_orthogonal_candidate_capped_at_one():
    g = Grid(100)
    t = g.points()
    noise = g.function(np.sin(2.0 * np.pi * t))
    ortho = g.function(np.cos(2.0 * np.pi * t))  # L2-orthogonal on [0,1]
    assert estimate_kappa(noise, [ortho]) == 1.0


def test_kappa_exact_cancellation_gives_zero(rng):
    g = Grid(31)
    noise = g.function(rng.normal(size=31))
    assert estimate_kappa(noise, [noise]) == 0.0


def test_kappa_rejects_zero_noise():
    with pytest.raises(ValueError):
        estimate_kappa(Grid(9).zeros(), [])


def test_kappa_antitone_in_candidate_set(rng):
    g = Grid(47)
    noise = g.function(rng.normal(size=47))
    candidates = [g.function(rng.normal(size=47)) for _ in range(8)]
    values = [
        estimate_kappa(noise, candidates[:k]) for k in range(len(candidates) + 1)
    ]
    assert all(b <= a for a, b in zip(values, values[1:]))
