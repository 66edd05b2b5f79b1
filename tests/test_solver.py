import dataclasses
import functools
import gc
import math
import weakref

import numpy as np
import pytest
import scipy.fft

import regupath.models
import regupath.solver
from regupath import (
    DivergenceError,
    Fidelity,
    ForwardModel,
    Grid,
    GridFunction,
    GridMap,
    InadmissibleCoefficientError,
    NoiseSpec,
    PathAborted,
    QuadraticPenalty,
    ShiftedQuadraticPenalty,
    SingularSystemError,
    SmoothedTVPenalty,
    SolveOptions,
    compute_alpha_path,
    elliptic_model,
    fredholm_model,
    l2_inner,
    lr_norm,
    make_noisy,
    preset,
    run_delta_sequence,
    run_experiment,
    solve_tikhonov,
)
from regupath.experiments import TRUTHS, build_model, range_source_w
from regupath.models import gauss_newton_step

from oracles import (fredholm_apply_matrix, gauss_newton_matrix, laplacian_eigenvalues, reference_solve_tikhonov,
                     spectral_tikhonov, tikhonov_normal_equations)


def identity_model(n=50):
    grid = Grid(n)
    return ForwardModel(
        name="identity",
        apply=GridMap(lambda x: x, grid, grid),
        adjoint_derivative=GridMap(lambda x, w: w, grid, grid, grid),
    )


def spied(grid_map, spy):
    """``grid_map`` with ``spy`` called first on the raw arrays of each evaluation."""
    return GridMap(lambda *arrays: spy(*arrays) or grid_map.on_values(*arrays),
                   grid_map.out_grid, *grid_map.in_grids)


@pytest.fixture(scope="module")
def noisy_benchmark():
    model = fredholm_model(101)
    t = model.x_grid.points()
    truth = model.x_grid.function(4.0 * t * (1.0 - t) + np.sin(2.0 * np.pi * t))
    y = model.apply(truth)
    noisy, delta = make_noisy(y, NoiseSpec(kind="gaussian", level=0.01, seed=7), 2.0)
    return model, truth, noisy, delta


def test_identity_model_closed_form_minimizer(rng):
    # min ||x - data||^2 + alpha ||x||^2 has the explicit solution data/(1+alpha)
    model = identity_model()
    data = model.x_grid.function(rng.normal(size=model.x_grid.n))
    fid = Fidelity(2.0, data)
    pen = QuadraticPenalty()
    for alpha in (0.1, 1.0, 10.0):
        rec = solve_tikhonov(model, fid, pen, alpha, SolveOptions(grad_tol=1e-12, max_iters=2000))
        expected = (1.0 / (1.0 + alpha)) * data
        assert lr_norm(rec.x - expected, 2.0) <= 1e-6 * lr_norm(expected, 2.0)
        assert rec.theta == rec.residual**2 / alpha


def test_fredholm_solver_matches_normal_equations(noisy_benchmark):
    model, truth, noisy, _ = noisy_benchmark
    fid = Fidelity(2.0, noisy)
    pen = QuadraticPenalty()
    ref_mat = fredholm_apply_matrix(101)
    w = model.x_grid.weights()
    for alpha in (0.3, 0.03):
        rec = solve_tikhonov(
            model, fid, pen, alpha,
            SolveOptions(max_iters=20000, grad_tol=1e-12, grad_tol_abs=1e-10),
        )
        x_ref = tikhonov_normal_equations(ref_mat, w, noisy.values, alpha)
        ref = model.x_grid.function(x_ref)
        assert lr_norm(rec.x - ref, 2.0) <= 1e-5 * lr_norm(ref, 2.0)


def test_linear_quadratic_gauss_newton_takes_one_step(noisy_benchmark):
    # r = 2, a linear model and a quadratic penalty: the Gauss-Newton step is
    # the normal-equations solve, and its gradient meets the test at once
    model, truth, noisy, _ = noisy_benchmark
    fid = Fidelity(2.0, noisy)
    ref_mat = fredholm_apply_matrix(101)
    w = model.x_grid.weights()
    for alpha in (0.3, 1e-3, 1e-6):
        rec = solve_tikhonov(model, fid, QuadraticPenalty(), alpha, SolveOptions(grad_tol=1e-8))
        assert rec.iters == 1 and rec.converged
        ref = model.x_grid.function(tikhonov_normal_equations(ref_mat, w, noisy.values, alpha))
        assert lr_norm(rec.x - ref, 2.0) <= 1e-9 * lr_norm(ref, 2.0)


@pytest.mark.parametrize("alpha", [1e-2, 1e-6])
@pytest.mark.parametrize("n", [101, 401, 1601])
def test_fredholm_gauss_newton_matches_the_spectral_oracle(rng, n, alpha):
    # One r = 2 solve against the exact sine-transform minimizer.  n = 6401
    # waits for a model without a dense kernel: fredholm_model(6401) holds one
    # 330 MB matrix, and each of its applies is a dense 6401 x 6401 matvec.
    #
    # The bound, to first order.  In the orthonormal sine basis of the
    # interior, T = L has eigenvalues lambda_k, the Hessian A = 2 K^T W K +
    # 2 alpha W has a_k = 2h (1600 / lambda_k^2 + alpha) and M = T A T has
    # lambda_k^2 a_k.  K vanishes at both ends, so x and x* are 0 there and
    # W = h I on what remains.  From x = 0 the solver takes one step x = -s:
    # rhs = W g with g = K (-2 data) a dense matvec, (M + E) y = T rhs + f and
    # s = T y + e, so  x - x* = A^-1 d + T M^-1 (f - E y*) + e  with
    #   |d| <= (n + 1) u W K |2 data|, as K >= 0, ||K|| = 40 / lambda_1 and
    #     ||A^-1|| = 1 / min a_k;
    #   |f| <= 3u |T| |rhs| and |e| <= 3u |T| |y*|, || |T| || <= 4 / h^2,
    #     rhs = A x* and y* = T^-1 x*;
    #   ||E|| <= 100 u ||M|| as in the n = 401 bound of
    #     test_gauss_newton_solve_matches_dense_oracle, here with forming M
    #     at 8 u || |T| B |T| || <= 8.01 u ||M||, as B = 2 alpha W is diagonal;
    #   ||T M^-1|| = max 1 / (lambda_k a_k).
    # The normwise product 100 u cond(T)^2 cond(A) exceeds 1 from n = 401 on.
    model = fredholm_model(n)
    grid = model.x_grid
    t = grid.points()
    data = model.apply(grid.function(4.0 * t * (1.0 - t) + np.sin(2.0 * np.pi * t)))
    data = data.with_values(data.values + 0.01 * rng.standard_normal(n))
    rec = solve_tikhonov(model, Fidelity(2.0, data), QuadraticPenalty(), alpha)
    assert rec.iters == 1 and rec.converged
    want = spectral_tikhonov(data.values, alpha)
    err = lr_norm(rec.x - grid.function(want), 2.0) / lr_norm(grid.function(want), 2.0)

    u, h, lam = np.finfo(float).eps / 2, grid.h, laplacian_eigenvalues(n)
    a = 2.0 * h * (1600.0 / lam**2 + alpha)
    x_hat = scipy.fft.dst(want[1:-1], type=1, norm="ortho")
    y_norm = np.linalg.norm(x_hat / lam)
    t_m_inv = (1.0 / (lam * a)).max()
    bound = ((n + 1) * u / a.min() * h * (40.0 / lam[0]) * 2.0 * np.linalg.norm(data.values)
             + t_m_inv * 3 * u * (4.0 / h**2) * np.linalg.norm(a * x_hat)
             + t_m_inv * 100 * u * (lam**2 * a).max() * y_norm
             + 3 * u * (4.0 / h**2) * y_norm) / np.linalg.norm(x_hat)
    assert bound < 1e-3
    assert err <= bound


def test_fredholm_gauss_newton_is_one_band_solve_per_step_and_only_for_r_2(noisy_benchmark, call_log):
    # a 36-alpha r = 2 path on one fresh model builds and factors one band per
    # Gauss-Newton step and solves with it; a second path on the same model,
    # at another noise level, meets the same 36 B = 2 alpha W and only solves,
    # to the bits of a fresh model; an r = 1.01 path runs descent and never
    # builds, factors or solves a band
    _, truth, noisy, _ = noisy_benchmark
    calls = {**call_log(regupath.models, "_sandwich_band"), **call_log(regupath.grid.lapack(), "dpbtrf", "dpbtrs")}
    model = fredholm_model(101)
    path = compute_alpha_path(model, Fidelity(2.0, noisy), QuadraticPenalty(), 1.0, 0.8, 35)
    assert len(path) == 36 and all(rec.converged for rec in path)
    assert sum(rec.iters for rec in path) == 36
    assert [len(calls[name]) for name in calls] == [36, 36, 36]
    other, _ = make_noisy(model.apply(truth), NoiseSpec(kind="gaussian", level=0.005, seed=8), 2.0)
    for seen in calls.values():
        seen.clear()
    again = compute_alpha_path(model, Fidelity(2.0, other), QuadraticPenalty(), 1.0, 0.8, 35)
    assert sum(rec.iters for rec in again) == 36
    assert [len(calls[name]) for name in calls] == [0, 0, 36]
    fresh = compute_alpha_path(fredholm_model(101), Fidelity(2.0, other), QuadraticPenalty(), 1.0, 0.8, 35)
    assert len(again) == len(fresh) == 36
    for got, want in zip(again, fresh):
        assert_same_record(got, want)
    for seen in calls.values():
        seen.clear()
    path = compute_alpha_path(fredholm_model(101), Fidelity(1.01, noisy), QuadraticPenalty(), 1.0, 0.8, 35,
                              SolveOptions(max_iters=20))
    assert len(path) == 36 and [len(calls[name]) for name in calls] == [0, 0, 0]


def test_a_fredholm_factor_is_reused_only_for_the_same_b():
    # on one model a quadratic path keeps the factors of B = 2 alpha W; a
    # smoothed-TV path over the same alphas, whose B depends on x, must not
    # take them, so its records are those of the same path on a fresh model
    model = fredholm_model(401)
    t = model.x_grid.points()
    y = model.apply(model.x_grid.function(np.where(t < 0.5, 1.0, 0.2)))
    first, _ = make_noisy(y, NoiseSpec(kind="gaussian", level=0.01, seed=3), 2.0)
    second, _ = make_noisy(y, NoiseSpec(kind="gaussian", level=0.003, seed=4), 2.0)
    tv, opts = SmoothedTVPenalty(eps=1e-2, mu=1e-3), SolveOptions(max_iters=50)
    compute_alpha_path(model, Fidelity(2.0, first), QuadraticPenalty(), 1.0, 0.8, 20)
    got = compute_alpha_path(model, Fidelity(2.0, second), tv, 1.0, 0.8, 20, opts)
    want = compute_alpha_path(fredholm_model(401), Fidelity(2.0, second), tv, 1.0, 0.8, 20, opts)
    assert len(got) == len(want) == 21 and all(rec.converged for rec in want)
    assert sum(rec.iters for rec in want) > 21
    for a, b in zip(got, want):
        assert_same_record(a, b)


def test_elliptic_gauss_newton_is_one_band_solve_per_free_step(call_log):
    # an r = 2 elliptic path whose iterates stay above the bound fixes no
    # coordinate, so each Gauss-Newton step is one congruent dpbtrf and
    # dpbtrs (its band changes with c, so nothing is reused) and none solves
    # the saddle system by dgbsv
    model, fid, pen, _ = _elliptic_case(lambda grid: SmoothedTVPenalty(eps=1e-3))
    solves = call_log(regupath.grid.lapack(), "dpbtrf", "dpbtrs", "dgbsv")
    init = model.x_grid.function(np.ones(model.x_grid.n))
    path = compute_alpha_path(model, fid, pen, 1e-2, 0.5, 4, SolveOptions(init=init))
    assert all(rec.converged and rec.x.values.min() > 0.0 for rec in path)
    assert len(solves["dpbtrf"]) == len(solves["dpbtrs"]) == sum(rec.iters for rec in path) > len(path)
    assert solves["dgbsv"] == []


@pytest.mark.parametrize("name, counts", [("example2_smooth", (592, 116, 116, 73)),
                                          ("example2_piecewise", (581, 186, 186, 0))])
def test_each_elliptic_preset_takes_its_known_share_of_each_lapack_route(name, counts, call_log):
    # the whole preset run: state and adjoint solves (dgtsv), congruent
    # Gauss-Newton steps (dpbtrf and dpbtrs) and saddle steps, each of which
    # holds an interior coefficient at the bound (dgbsv)
    solves = call_log(regupath.grid.lapack(), "dgtsv", "dpbtrf", "dpbtrs", "dgbsv")
    run_experiment(preset(name))
    assert tuple(len(calls) for calls in solves.values()) == counts


def _fredholm_tv_case(n, eps):
    """The Fredholm model at n, noisy three_steps data (level 0.01, seed 1) and smoothed TV of ``eps``."""
    model = fredholm_model(n)
    truth = model.x_grid.from_callable(TRUTHS["three_steps"])
    noisy, _ = make_noisy(model.apply(truth), NoiseSpec(kind="gaussian", level=0.01, seed=1), 2.0)
    return model, Fidelity(2.0, noisy), SmoothedTVPenalty(eps, mu=1e-3)


def test_each_fredholm_case_takes_its_known_share_of_each_lapack_route(call_log):
    # the benchmark's shrinking-noise unit on a fresh model: a quadratic B is
    # diagonal, so every step takes the band Cholesky, and each of the 36
    # alphas is factored once and reused by the other four noise levels; a
    # smoothed-TV path takes every step on the saddle route (dgbsv)
    solves = call_log(regupath.grid.lapack(), "dpbtrf", "dpbtrs", "dgbsv")
    model = fredholm_model(101)
    x_dagger = model.apply(model.x_grid.from_callable(range_source_w))
    run_delta_sequence(model, QuadraticPenalty(), 2.0, 1.0, 0.8, 35, deltas=[0.2, 0.1, 0.05, 0.025, 0.0125],
                       seed=7, x_dagger=x_dagger, max_workers=1,
                       opts=SolveOptions(max_iters=3000, grad_tol=1e-9, grad_tol_abs=1e-6))
    assert tuple(len(calls) for calls in solves.values()) == (36, 180, 0)
    for calls in solves.values():
        calls.clear()
    path = compute_alpha_path(*_fredholm_tv_case(101, 1e-3), 1.0, 0.8, 4)
    steps = sum(rec.iters for rec in path)
    assert steps > len(path) and all(rec.converged for rec in path)
    assert tuple(len(calls) for calls in solves.values()) == (0, 0, steps)


@pytest.mark.parametrize("n", [101, 401])
def test_every_fredholm_smoothed_tv_direction_is_backward_stable(n, monkeypatch):
    # each Gauss-Newton direction d of the first 7 alphas against the dense
    # H = 2 K^T W K + B of the oracles: ||H d - rhs|| / (||H|| ||d||) stays
    # at rounding level.  The congruent band T B T + S would square cond(T):
    # at n = 401 it leaves up to 4.6e-8 on the steps that factor at all.
    steps = []

    def kept(jac, free, diag, sub, rhs):
        d = gauss_newton_step(jac, free, diag, sub, rhs)
        steps.append((diag, sub, rhs, d))
        return d

    monkeypatch.setattr(regupath.solver, "gauss_newton_step", kept)
    model, fid, pen = _fredholm_tv_case(n, 1e-3)
    path = compute_alpha_path(model, fid, pen, 1.0, 0.8, 6)
    kernel, free = fredholm_apply_matrix(n), np.ones(n, dtype=bool)
    worst = 0.0
    for diag, sub, rhs, d in steps:
        lhs = gauss_newton_matrix(model, kernel, free, diag, sub)
        worst = max(worst, np.linalg.norm(lhs @ d - rhs) / (np.linalg.norm(lhs, 2) * np.linalg.norm(d)))
    assert worst <= 1e-14
    assert sum(rec.iters for rec in path) == len(steps) > len(path)  # no step fell back to the gradient


def test_a_fredholm_smoothed_tv_path_at_eps_1e_4_converges_without_a_fallback(monkeypatch):
    # n = 401, 21 alphas: every solve converges within 84 steps on the saddle
    # route, and no step meets a singular system.  Through the congruent
    # band the same path takes 47,111 steps with 5000 allowed per solve, and
    # 9 of its solves do not converge; the cap of 150 bounds that case.
    fallbacks = []

    def recorded(*args):
        try:
            return gauss_newton_step(*args)
        except SingularSystemError:
            fallbacks.append(args)
            raise

    monkeypatch.setattr(regupath.solver, "gauss_newton_step", recorded)
    path = compute_alpha_path(*_fredholm_tv_case(401, 1e-4), 1.0, 0.8, 20, SolveOptions(max_iters=150, grad_tol=1e-8))
    assert len(path) == 21 and all(rec.converged for rec in path)
    assert fallbacks == []


def test_a_warm_started_elliptic_solve_starts_from_its_predecessors_state(call_log):
    # Solve j = 1 of a path starts at record 0's x, whose misfit, penalty and
    # gradient parts solve j = 0 computed last, so it evaluates its start not
    # at all: two tridiagonal solves (the state and the adjoint) fewer than the
    # same solve on a model that has not seen that point.
    path_case, first_case, cold_case = (_elliptic_case(lambda grid: SmoothedTVPenalty(eps=1e-3))[:3]
                                        for _ in range(3))
    opts = SolveOptions(init=path_case[0].x_grid.function(np.ones(path_case[0].x_grid.n)))
    solves = call_log(regupath.models, "solve_tridiagonal")["solve_tridiagonal"]
    path = compute_alpha_path(*path_case, 1e-2, 0.5, 1, opts)
    in_path = len(solves)
    solves.clear()
    compute_alpha_path(*first_case, 1e-2, 0.5, 0, opts)
    first = len(solves)
    solves.clear()
    cold = solve_tikhonov(*cold_case, path[1].alpha,
                          dataclasses.replace(opts, init=path[0].x, grad_tol_abs=path[0].tol))
    assert in_path == first + len(solves) - 2
    assert cold.iters == path[1].iters > 0
    np.testing.assert_array_equal(cold.x.values, path[1].x.values)


def test_singular_gauss_newton_system_falls_back_to_gradient_step(rng, monkeypatch):
    # a model whose Gauss-Newton solve always fails still converges, by
    # gradient steps, to the closed-form minimizer data/(1+alpha)
    calls = []

    def singular(*args):
        calls.append(1)
        raise SingularSystemError("singular")

    monkeypatch.setattr(regupath.solver, "gauss_newton_step", singular)
    model = dataclasses.replace(identity_model(), jacobian=lambda v: None)
    data = model.x_grid.function(rng.normal(size=model.x_grid.n))
    rec = solve_tikhonov(model, Fidelity(2.0, data), QuadraticPenalty(), 1.0,
                         SolveOptions(grad_tol=1e-12, max_iters=100))
    assert rec.converged and len(calls) == rec.iters
    expected = 0.5 * data
    assert lr_norm(rec.x - expected, 2.0) <= 1e-10 * lr_norm(expected, 2.0)


def test_shifted_penalty_solver_matches_oracle(noisy_benchmark):
    model, truth, noisy, _ = noisy_benchmark
    fid = Fidelity(2.0, noisy)
    c0 = model.x_grid.function(model.x_grid.points())
    pen = ShiftedQuadraticPenalty(c0)
    ref_mat = fredholm_apply_matrix(101)
    w = model.x_grid.weights()
    alpha = 0.05
    rec = solve_tikhonov(
        model, fid, pen, alpha,
        SolveOptions(max_iters=20000, grad_tol=1e-12, grad_tol_abs=1e-10),
    )
    x_ref = tikhonov_normal_equations(ref_mat, w, noisy.values, alpha, c0=c0.values)
    ref = model.x_grid.function(x_ref)
    assert lr_norm(rec.x - ref, 2.0) <= 1e-5 * lr_norm(ref, 2.0)


def test_objective_below_reference_points(noisy_benchmark):
    # minimizing property: the returned value never exceeds T_alpha at the
    # initial point or at the true solution (up to a small slack)
    model, truth, noisy, _ = noisy_benchmark
    fid = Fidelity(1.01, noisy)
    pen = QuadraticPenalty()
    alpha = 1.0
    opts = SolveOptions(max_iters=2000)
    rec = solve_tikhonov(model, fid, pen, alpha, opts)
    t_init = fid.value(model.apply(model.x_grid.zeros()))
    t_truth = fid.value(model.apply(truth)) + alpha * pen.value(truth)
    assert rec.objective <= t_init + 1e-8
    assert rec.objective <= t_truth + 1e-8
    assert rec.objective == fid.value(rec.fx) + alpha * pen.value(rec.x)


def test_divergence_error_on_overflowing_objective():
    model = identity_model(21)
    big = model.x_grid.function(np.full(21, 1e12))
    fid = Fidelity(50.0, big)  # residual^50 overflows at the zero init
    with pytest.raises(DivergenceError):
        solve_tikhonov(model, fid, QuadraticPenalty(), 1.0)


def test_solver_rejects_bad_alpha_and_wrong_grid():
    model = identity_model(11)
    fid = Fidelity(2.0, model.x_grid.zeros())
    with pytest.raises(ValueError):
        solve_tikhonov(model, fid, QuadraticPenalty(), 0.0)
    with pytest.raises(ValueError):
        solve_tikhonov(
            model, fid, QuadraticPenalty(), 1.0, SolveOptions(init=Grid(12).zeros())
        )


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(max_iters=0)
    with pytest.raises(ValueError):
        SolveOptions(grad_tol=0.0)
    # at 1 or more, tol = grad_tol * |g(init)| could overflow a finite norm
    for grad_tol in (1.0, 1e300):
        with pytest.raises(ValueError, match=r"grad_tol must lie in \(0, 1\)"):
            SolveOptions(grad_tol=grad_tol)


# ---------------------------------------------------------------------------
# alpha paths

def test_path_alpha_values_geometric():
    model = identity_model(16)
    data = model.x_grid.function(np.sin(np.arange(16.0)))
    fid = Fidelity(2.0, data)
    path = compute_alpha_path(model, fid, QuadraticPenalty(), 1.0, 0.95, 3)
    alphas = [rec.alpha for rec in path]
    np.testing.assert_allclose(alphas, [1.0, 0.95, 0.9025, 0.857375], rtol=1e-14)


def test_path_single_point_when_j_max_zero():
    model = identity_model(16)
    data = model.x_grid.function(np.ones(16))
    path = compute_alpha_path(model, Fidelity(2.0, data), QuadraticPenalty(), 0.7, 0.5, 0)
    assert len(path) == 1 and path[0].alpha == 0.7


def test_path_truncates_below_alpha_floor():
    # 1e-15 is the first grid point below the 1e-12 floor; five descent
    # steps keep the residual far above its own truncation floor
    model = fredholm_model(16)
    data = model.x_grid.function(np.ones(16))
    path = compute_alpha_path(
        model, Fidelity(2.0, data), QuadraticPenalty(), 1.0, 1e-5, 5, SolveOptions(max_iters=5)
    )
    assert [rec.alpha for rec in path] == [1.0, 1e-5, 1e-5**2]
    assert path[-1].residual ** 2 > 1e-14


def test_path_truncates_on_numerically_exact_fit():
    # the identity model fits ones to residual ~ alpha, tripping the
    # residual^r floor right after the first record
    model = identity_model(8)
    data = model.x_grid.function(np.ones(8))
    path = compute_alpha_path(
        model, Fidelity(2.0, data), QuadraticPenalty(), 1e-10, 0.5, 10,
        SolveOptions(max_iters=500, grad_tol=1e-12),
    )
    assert len(path) == 1
    assert path[0].residual ** 2 <= 1e-14


def test_path_residual_monotone_and_penalty_antitone(noisy_benchmark):
    model, truth, noisy, _ = noisy_benchmark
    fid = Fidelity(2.0, noisy)
    pen = QuadraticPenalty()
    opts = SolveOptions(max_iters=20000, grad_tol=1e-11, grad_tol_abs=1e-9)
    path = compute_alpha_path(model, fid, pen, 1.0, 0.7, 12, opts)
    resid = [rec.residual for rec in path]
    pen_vals = [rec.penalty for rec in path]
    # records come in decreasing alpha, so residuals drop, penalties rise
    assert all(b <= a + 1e-6 for a, b in zip(resid, resid[1:]))
    assert all(b >= a - 1e-6 for a, b in zip(pen_vals, pen_vals[1:]))

    ref_mat = fredholm_apply_matrix(101)
    w = model.x_grid.weights()
    for rec in path:
        x_ref = tikhonov_normal_equations(ref_mat, w, noisy.values, rec.alpha)
        ref = model.x_grid.function(x_ref)
        assert lr_norm(rec.x - ref, 2.0) <= 1e-4 * lr_norm(ref, 2.0)


def test_warm_and_cold_paths_agree_on_linear_benchmark(noisy_benchmark):
    model, truth, noisy, _ = noisy_benchmark
    fid = Fidelity(2.0, noisy)
    pen = QuadraticPenalty()
    opts = SolveOptions(max_iters=20000, grad_tol=1e-12, grad_tol_abs=1e-9)
    warm = compute_alpha_path(model, fid, pen, 0.5, 0.6, 8, opts)
    cold = [
        solve_tikhonov(model, fid, pen, rec.alpha,
                       SolveOptions(max_iters=20000, grad_tol=1e-12, grad_tol_abs=1e-9))
        for rec in warm
    ]
    for rec_w, rec_c in zip(warm, cold):
        assert rec_w.objective == pytest.approx(rec_c.objective, rel=1e-4)


def test_warm_start_inequality_against_previous_point(noisy_benchmark):
    # each record must beat the previous minimizer's objective at its alpha
    model, truth, noisy, _ = noisy_benchmark
    fid = Fidelity(2.0, noisy)
    pen = QuadraticPenalty()
    path = compute_alpha_path(model, fid, pen, 0.5, 0.6, 8, SolveOptions(max_iters=4000))
    for prev, rec in zip(path, path[1:]):
        t_prev = fid.value(prev.fx) + rec.alpha * pen.value(prev.x)
        assert rec.objective <= t_prev + 1e-8


def test_theta_stored_exactly(noisy_benchmark):
    model, truth, noisy, _ = noisy_benchmark
    fid = Fidelity(1.5, noisy)
    path = compute_alpha_path(model, fid, QuadraticPenalty(), 0.2, 0.5, 4,
                              SolveOptions(max_iters=500))
    for rec in path:
        assert rec.theta == rec.residual**1.5 / rec.alpha


def test_path_evaluates_its_start_once_and_floors_later_solves_at_the_first_tol(
        noisy_benchmark, monkeypatch):
    # the first solve is the only evaluation at the path's start; every later
    # solve warm-starts from the previous record with the first record's tol
    # as its absolute floor
    model, truth, noisy, _ = noisy_benchmark
    fid, pen, alpha0 = Fidelity(2.0, noisy), QuadraticPenalty(), 0.5
    init = model.x_grid.function(np.ones(model.x_grid.n))
    g = model.adjoint_derivative(init, fid.gradient(model.apply(init))) + alpha0 * pen.subgradient(init)
    opts = SolveOptions(max_iters=50, grad_tol=1e-9, grad_tol_abs=1e-12, init=init)
    applied, adjoints, seen = [], [], []  # applied: (index of the running solve, argument)
    apply, adjoint, solve = model.apply, model.adjoint_derivative, regupath.solver.solve_tikhonov
    model = dataclasses.replace(model, apply=spied(apply, lambda v: applied.append((len(seen) - 1, v))),
                                adjoint_derivative=spied(adjoint, lambda v, w: adjoints.append(v)))
    monkeypatch.setattr(regupath.solver, "solve_tikhonov", lambda *args: seen.append(args[4]) or solve(*args))
    path = compute_alpha_path(model, fid, pen, alpha0, 0.6, 4, opts)
    # a later solve starts from its predecessor's evaluation of the same x, so
    # the path evaluates only its first start: one apply there, and one
    # adjoint there plus one per accepted step.  A record's x is the accepted
    # trial array itself, so each apply is matched to the start of the solve
    # that made it; a trial equal to its start predicts no decrease and is
    # never evaluated, so an apply there is an evaluation of the start.
    starts = [init.values] + [rec.x.values for rec in path[:-1]]
    assert [k for k, v in applied if np.array_equal(v, starts[k])] == [0] and applied[0][1] is init.values
    assert len(adjoints) == 1 + sum(rec.iters for rec in path) and adjoints[0] is init.values
    assert len(seen) == len(path) == 5 and seen[0] is opts
    assert path[0].tol == max(opts.grad_tol * math.sqrt(l2_inner(g, g)), opts.grad_tol_abs)
    for prev, step_opts in zip(path, seen[1:]):
        assert step_opts.init is prev.x and step_opts.grad_tol_abs == path[0].tol


def assert_same_record(got, want):
    """Every field of two records agrees bit for bit."""
    for name in ("alpha", "residual", "penalty", "theta", "objective", "tol"):
        assert float(getattr(got, name)).hex() == float(getattr(want, name)).hex(), name
    assert (got.iters, got.converged) == (want.iters, want.converged)
    assert got.x.values.tobytes() == want.x.values.tobytes()
    assert got.fx.values.tobytes() == want.fx.values.tobytes()


def _reuse_case(case):
    """(model, fid, pen, alpha0, q, j_max, opts) of a short path whose warm starts are checked."""
    if case == "elliptic_tv_projected":
        model, fid, pen, _ = _elliptic_case(lambda grid: SmoothedTVPenalty(eps=1e-3))
        return model, fid, pen, 1e-2, 0.5, 4, SolveOptions(init=model.x_grid.function(np.ones(model.x_grid.n)))
    model, fid, pen, _ = _fredholm_outlier_case()
    if case == "fredholm_r2":
        return model, Fidelity(2.0, fid.target), pen, 1.0, 0.8, 10, SolveOptions()
    return model, fid, pen, 0.5, 0.5, 6, SolveOptions(max_iters=25)


@pytest.mark.parametrize("case", ["fredholm_r2", "fredholm_r1.01_capped", "elliptic_tv_projected"])
def test_a_warm_start_from_the_predecessors_evaluation_is_exact(case):
    # Solve j >= 1 of a path takes its start's misfit, penalty and gradient
    # parts from solve j - 1.  It must return what the same solve returns
    # from a copy of record j - 1's x, which evaluates the start afresh.
    model, fid, pen, alpha0, q, j_max, opts = _reuse_case(case)
    adjoints = []
    path_model = dataclasses.replace(model, adjoint_derivative=spied(model.adjoint_derivative,
                                                                     lambda v, w: adjoints.append(1)))
    path = compute_alpha_path(path_model, fid, pen, alpha0, q, j_max, opts)
    assert len(path) == j_max + 1 and all(rec.iters > 0 for rec in path[1:])
    assert len(adjoints) == 1 + sum(rec.iters for rec in path)
    if case == "fredholm_r1.01_capped":
        assert any(rec.iters == opts.max_iters for rec in path[1:])
    for prev, rec in zip(path, path[1:]):
        copy = prev.x.with_values(prev.x.values)
        cold_opts = dataclasses.replace(opts, init=copy, grad_tol_abs=path[0].tol)
        assert_same_record(rec, solve_tikhonov(model, fid, pen, rec.alpha, cold_opts))


@pytest.mark.parametrize("other", ["same", "fidelity", "penalty", "model"])
def test_a_start_is_reused_only_for_the_same_point_model_misfit_and_penalty(noisy_benchmark, other):
    # The memo is keyed on object identity: an equal but distinct misfit,
    # penalty or model evaluates the start again, and every variant returns
    # what a solve from a copy of the start returns.
    base, _, noisy, _ = noisy_benchmark
    applied, adjoints = [], []
    model = dataclasses.replace(base, apply=spied(base.apply, applied.append),
                                adjoint_derivative=spied(base.adjoint_derivative, lambda v, w: adjoints.append(v)))
    fid, pen = Fidelity(2.0, noisy), QuadraticPenalty()
    first = solve_tikhonov(model, fid, pen, 0.5, SolveOptions(init=model.x_grid.function(np.ones(101))))
    start = first.x.values
    variant = {
        "same": (model, fid, pen),
        "fidelity": (model, Fidelity(2.0, noisy), pen),
        "penalty": (model, fid, QuadraticPenalty()),
        "model": (dataclasses.replace(model), fid, pen),
    }[other]
    opts = SolveOptions(init=first.x, grad_tol_abs=first.tol)
    applied.clear()
    adjoints.clear()
    got = solve_tikhonov(*variant, 0.1, opts)
    evaluated = other != "same"
    assert sum(v is start for v in applied) == sum(v is start for v in adjoints) == evaluated
    cold = solve_tikhonov(*variant, 0.1, dataclasses.replace(opts, init=first.x.with_values(start)))
    assert_same_record(got, cold)


def _aborting_model(fid, pen):
    """An identity model whose adjoint turns infinite after the calls of a path's solve j = 0,
    so that solve j = 1 diverges at its first step."""
    model = identity_model()
    first_calls = 1 + compute_alpha_path(model, fid, pen, 1.0, 0.5, 0)[0].iters
    calls = []

    def adjoint(x, w):
        calls.append(1)
        return w if len(calls) <= first_calls else np.full_like(w, np.inf)

    grid = model.x_grid
    return dataclasses.replace(model, adjoint_derivative=GridMap(adjoint, grid, grid, grid))


@pytest.mark.parametrize("ending", ["returns", "raises", "standalone"])
def test_a_path_keeps_no_model_alive_after_it_ends(ending):
    # a standalone solve leaves its end point in the warm-start memo, which
    # holds the model, the misfit and the penalty only by weak references
    grid, pen = identity_model().x_grid, QuadraticPenalty()
    fid = Fidelity(2.0, grid.function(np.linspace(1.0, 2.0, grid.n)))
    model = _aborting_model(fid, pen) if ending == "raises" else identity_model()
    alive = [weakref.ref(model), weakref.ref(fid), weakref.ref(pen)]
    try:
        if ending == "standalone":
            path = [solve_tikhonov(model, fid, pen, 1.0)]
        else:
            path = compute_alpha_path(model, fid, pen, 1.0, 0.5, 3)
    except PathAborted as exc:
        path = exc.records
    assert len(path) == (4 if ending == "returns" else 1)
    del model, fid, pen
    gc.collect()
    assert [ref() for ref in alive] == [None, None, None]


def test_inadmissible_initial_guess_raises():
    # the model's apply is the one home of the admissible set
    N = 20
    u_grid = Grid(N - 1, convention="interior")
    model = elliptic_model(N, 1.0, 6.0, u_grid.from_callable(lambda t: 1.0 + t))
    coefficient = np.ones(N + 1)
    coefficient[N // 2] = -0.5
    init = model.x_grid.function(coefficient)
    fid = Fidelity(2.0, model.apply(model.x_grid.function(np.ones(N + 1))))
    opts = SolveOptions(max_iters=10, init=init)
    with pytest.raises(InadmissibleCoefficientError):
        solve_tikhonov(model, fid, QuadraticPenalty(), 0.1, opts)
    with pytest.raises(InadmissibleCoefficientError):
        compute_alpha_path(model, fid, QuadraticPenalty(), 0.1, 0.5, 3, opts)


def test_projection_keeps_iterates_admissible(rng):
    # a clipping model must never see a negative coordinate at evaluation
    grid = Grid(30)
    seen = []

    def checked_apply(v):
        seen.append(float(np.min(v)))
        return v

    model = ForwardModel(
        name="clipped-identity",
        apply=GridMap(checked_apply, grid, grid),
        adjoint_derivative=GridMap(lambda x, w: w, grid, grid, grid),
        project=lambda vals: np.maximum(vals, 0.0),
    )
    data = grid.function(rng.normal(size=30))  # some negative targets
    fid = Fidelity(2.0, data)
    rec = solve_tikhonov(model, fid, QuadraticPenalty(), 0.5,
                         SolveOptions(max_iters=200, init=grid.function(np.ones(30))))
    assert min(seen) >= 0.0
    assert np.all(rec.x.values >= 0.0)


# ---------------------------------------------------------------------------
# the array-level loop against the GridFunction-level descent reference


def _fredholm_outlier_case():
    model = fredholm_model(101)
    t = model.x_grid.points()
    y = model.apply(model.x_grid.function(4.0 * t * (1.0 - t) + np.sin(2.0 * np.pi * t)))
    noisy, _ = make_noisy(y, NoiseSpec(kind="impulsive", fraction=0.1, amplitude=2.0, seed=3), 1.01)
    return model, Fidelity(1.01, noisy), QuadraticPenalty(), 0.05


def _elliptic_case(penalty_of, r=2.0):
    N = 50
    u_grid = Grid(N - 1, convention="interior")
    f = u_grid.from_callable(lambda t: 100.0 * np.exp(-10.0 * (t - 0.5) ** 2))
    model = elliptic_model(N, 1.0, 6.0, f)
    t = model.x_grid.points()
    y = model.apply(model.x_grid.function(1.0 + 2.0 * (t > 0.4) * (t < 0.7)))
    noisy, _ = make_noisy(y, NoiseSpec(kind="gaussian", level=0.05, seed=5), 2.0)
    return model, Fidelity(r, noisy), penalty_of(model.x_grid), 1e-3


GUARD_CASES = {
    "fredholm_r1.01": _fredholm_outlier_case,
    "elliptic_tv_projected": lambda: _elliptic_case(lambda grid: SmoothedTVPenalty(eps=1e-3)),
    "elliptic_shifted_quadratic": lambda: _elliptic_case(
        lambda grid: ShiftedQuadraticPenalty(grid.function(grid.points()))),
    # descent that ends where the projection blocks every direction of decrease
    "elliptic_shifted_quadratic_r1.01": lambda: _elliptic_case(
        lambda grid: ShiftedQuadraticPenalty(grid.function(grid.points())), r=1.01),
}


@pytest.mark.parametrize("case", sorted(GUARD_CASES))
def test_solver_matches_gridfunction_reference_bit_for_bit(case):
    # The r = 1.01 cases run descent, which must match the reference bit for
    # bit.  The r = 2 elliptic cases take projected Gauss-Newton steps, which
    # must end at or below the reference descent's objective through
    # admissible points only.
    model, fid, pen, alpha = GUARD_CASES[case]()
    clipped, lowest = [], []
    project, apply = model.project, model.apply
    model = dataclasses.replace(model, apply=spied(apply, lambda v: lowest.append(v.min())))
    if project is not None:
        model = dataclasses.replace(model, project=lambda v: clipped.append((v < 0).any()) or project(v))
    opts = SolveOptions(max_iters=400, grad_tol=1e-10)
    got = solve_tikhonov(model, fid, pen, alpha, opts)
    got_clipped, got_lowest = any(clipped), min(lowest)
    want = reference_solve_tikhonov(model, fid, pen, alpha, opts)
    if fid.r == 2.0:
        assert got.objective <= want.objective * (1 + 1e-12)
        assert got_lowest >= 0.0 and got.x.values.min() >= 0.0
    else:
        assert got.iters == want.iters and got.iters > 50
        assert got.converged == want.converged
        assert got.objective == want.objective
        assert np.array_equal(got.x.values, want.x.values)
        assert np.array_equal(got.fx.values, want.fx.values)
    assert got_clipped == (case in ("elliptic_tv_projected", "elliptic_shifted_quadratic_r1.01"))


def test_non_finite_gradient_is_an_error():
    # the objective alpha * ||1||^2 is finite, its gradient alpha * 2 * 1 is not
    model = identity_model(8)
    ones = model.x_grid.function(np.ones(8))
    fid, opts = Fidelity(2.0, ones), SolveOptions(init=ones)
    with pytest.raises(DivergenceError, match="gradient is non-finite"):
        solve_tikhonov(model, fid, QuadraticPenalty(), 1e308, opts)
    # the first solve's gradient at the path's start fails, so no record is kept
    with pytest.raises(PathAborted, match="gradient is non-finite") as excinfo:
        compute_alpha_path(model, fid, QuadraticPenalty(), 1e308, 0.5, 3, opts)
    assert excinfo.value.records == []


@pytest.mark.parametrize("case", ["fredholm_r1.01", "elliptic_shifted_quadratic_r1.01"])
def test_array_loop_matches_gridfunction_reference_bit_for_bit(case):
    # the same comparison through the models' own array forms, unwrapped
    model, fid, pen, alpha = GUARD_CASES[case]()
    opts = SolveOptions(max_iters=400, grad_tol=1e-10)
    got = solve_tikhonov(model, fid, pen, alpha, opts)
    want = reference_solve_tikhonov(model, fid, pen, alpha, opts)
    assert got.iters == want.iters and got.iters > 50
    assert got.converged == want.converged and got.objective == want.objective
    assert np.array_equal(got.x.values, want.x.values)
    assert np.array_equal(got.fx.values, want.fx.values)


def _wrapped(fn):
    @functools.wraps(fn)
    def shim(*args):
        return fn(*args)

    return shim


@pytest.mark.parametrize("case", ["fredholm_r1.01", "elliptic_tv_projected"])
def test_model_of_wrapped_maps_solves_like_the_bare_model(case):
    # functools.wraps copies a GridMap's on_values and grids onto the wrapper,
    # so a model of such wrappers passes the contract and solves bit for bit
    model, fid, pen, alpha = GUARD_CASES[case]()
    wrapped = dataclasses.replace(
        model,
        apply=_wrapped(model.apply),
        adjoint_derivative=_wrapped(model.adjoint_derivative),
        project=None if model.project is None else _wrapped(model.project),
    )
    assert (wrapped.x_grid, wrapped.y_grid) == (model.x_grid, model.y_grid)
    opts = SolveOptions(max_iters=400, grad_tol=1e-10)
    got, want = (solve_tikhonov(m, fid, pen, alpha, opts) for m in (wrapped, model))
    assert got.iters == want.iters > 0
    assert got.converged == want.converged and got.objective == want.objective
    assert np.array_equal(got.x.values, want.x.values)
    assert np.array_equal(got.fx.values, want.fx.values)


def _constructions_per_solve(monkeypatch, model, fid, pen, alpha, max_iters):
    opts = SolveOptions(max_iters=max_iters, grad_tol=1e-10, init=model.x_grid.zeros())
    built, post_init, adopt = [], GridFunction.__post_init__, GridFunction._adopt
    with monkeypatch.context() as patch:
        patch.setattr(GridFunction, "__post_init__", lambda self: built.append(1) or post_init(self))
        patch.setattr(GridFunction, "_adopt", classmethod(lambda cls, grid, v: built.append(1) or adopt(grid, v)))
        rec = solve_tikhonov(model, fid, pen, alpha, opts)
    return len(built), rec.iters


def test_solves_build_grid_functions_only_for_their_records(monkeypatch):
    # the record's x and fx are the only GridFunctions a solve builds, by
    # construction or by taking over the solver's arrays, however many
    # iterations it takes; its residual is taken on the arrays
    descent = _fredholm_outlier_case()
    gauss_newton = _elliptic_case(lambda grid: SmoothedTVPenalty(eps=1e-3))
    for case, short, long, many in ((descent, 20, 400, 100), (gauss_newton, 1, 50, 3)):
        built_short, iters_short = _constructions_per_solve(monkeypatch, *case, short)
        built_long, iters_long = _constructions_per_solve(monkeypatch, *case, long)
        assert iters_short < many <= iters_long, (iters_short, iters_long)
        assert built_short == built_long == 2


def _blocked_start_case(r):
    # Data above the zero coefficient's state: at c = 0 the gradient pushes
    # every interior coefficient below the bound, so the projection returns
    # c = 0 for every step length and no trial predicts a decrease.
    N = 50
    u_grid = Grid(N - 1, convention="interior")
    model = elliptic_model(N, 1.0, 6.0, u_grid.from_callable(lambda t: 100.0 * np.exp(-10.0 * (t - 0.5) ** 2)))
    zero = model.x_grid.zeros()
    data = model.apply(zero) + u_grid.function(np.ones(N - 1))
    return model, Fidelity(r, data), zero


@pytest.mark.parametrize("r", [1.01, 2.0], ids=["descent", "gauss_newton"])
def test_blocked_trials_are_rejected_without_evaluating_the_model(r):
    model, fid, zero = _blocked_start_case(r)
    applied = []
    apply = model.apply
    model = dataclasses.replace(model, apply=spied(apply, lambda v: applied.append(1)))
    rec = solve_tikhonov(model, fid, QuadraticPenalty(), 1e-3, SolveOptions(init=zero))
    assert rec.iters == 0 and not rec.converged
    assert len(applied) == 1  # the start point alone


def test_overflowing_model_output_at_the_start_is_a_divergence():
    model = fredholm_model(101)
    fid = Fidelity(1.01, model.x_grid.zeros())
    opts = SolveOptions(init=model.x_grid.function(np.full(101, 1.7e308)))  # F x overflows
    with pytest.raises(DivergenceError, match="non-finite at the initial point"):
        solve_tikhonov(model, fid, QuadraticPenalty(), 1.0, opts)
    with pytest.raises(PathAborted) as excinfo:
        compute_alpha_path(model, fid, QuadraticPenalty(), 1.0, 0.5, 3, opts)
    assert excinfo.value.records == []


def test_overflowing_model_output_at_a_trial_point_is_backtracked():
    # F x = exp(x): the first trial steps reach x ~ 2000, where F overflows
    grid = Grid(21)
    finite = []

    def exp_values(v):
        out = np.exp(v)
        finite.append(bool(np.isfinite(out).all()))
        return out

    model = ForwardModel(
        name="exp",
        apply=GridMap(exp_values, grid, grid),
        adjoint_derivative=GridMap(lambda x, w: np.exp(x) * w, grid, grid, grid),
    )
    fid, pen, alpha = Fidelity(1.01, grid.function(np.ones(21))), QuadraticPenalty(), 1e3
    init = grid.function(-np.ones(21))
    start = fid.value(model.apply(init)) + alpha * pen.value(init)
    finite.clear()
    rec = solve_tikhonov(model, fid, pen, alpha, SolveOptions(max_iters=20, init=init))
    assert finite[:3] == [True, False, False]  # the start point, then two trial points
    assert rec.iters > 0 and rec.objective < start


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("case, iters, applies", [("descent", 29, 33), ("gauss_newton", 59, 82)])
def test_non_finite_trial_points_from_the_projection_are_rejected_unevaluated(case, iters, applies, bad):
    # A non-finite trial has a non-finite predicted decrease, so it is rejected
    # before the model sees it and without a numpy warning (every warning is an
    # error in this suite).  The counts are the ones of a solve that tested
    # every trial point's samples for finiteness before its predicted decrease.
    if case == "descent":
        model, fid, pen, alpha = _fredholm_outlier_case()
    else:
        model, fid, pen, alpha = _elliptic_case(lambda grid: SmoothedTVPenalty(eps=1e-3))
    applied, poisoned, base = [], [], model.project

    def project(v):  # the model's projection, or none, with every sample beyond 1 in size made ``bad``
        out = np.where(np.abs(v) > 1.0, bad, v if base is None else base(v))
        poisoned.append(not np.isfinite(out).all())
        return out

    model = dataclasses.replace(
        model, apply=spied(model.apply, lambda v: applied.append(bool(np.isfinite(v).all()))), project=project)
    rec = solve_tikhonov(model, fid, pen, alpha, SolveOptions(max_iters=60))
    assert any(poisoned) and all(applied)
    assert (rec.iters, len(applied)) == (iters, applies)
    assert np.isfinite(rec.x.values).all() and math.isfinite(rec.objective)


def test_a_gauss_newton_step_that_overflows_is_rejected_unevaluated(noisy_benchmark, monkeypatch):
    # the step (1e308)^2 s overflows, and its samples that do stay inf at
    # each step length, so the whole arc is rejected with the start its only
    # evaluation
    model, truth, noisy, _ = noisy_benchmark
    applied = []
    step = regupath.solver.gauss_newton_step
    monkeypatch.setattr(regupath.solver, "gauss_newton_step", lambda *args: 1e308 * (1e308 * step(*args)))
    model = dataclasses.replace(model, apply=spied(model.apply, lambda v: applied.append(1)))
    rec = solve_tikhonov(model, Fidelity(2.0, noisy), QuadraticPenalty(), 1e-3)
    assert (rec.iters, rec.converged, len(applied)) == (0, False, 1)


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_a_non_finite_gradient_after_a_step_is_an_error(bad):
    # F'(x)* is the identity at the start x = 0 and non-finite anywhere else
    model = identity_model(8)
    model = dataclasses.replace(model, adjoint_derivative=GridMap(
        lambda x, w: np.where(x == 0.0, w, bad), model.x_grid, model.x_grid, model.y_grid))
    fid = Fidelity(2.0, model.y_grid.function(np.ones(8)))
    with pytest.raises(DivergenceError, match="gradient is non-finite"):
        solve_tikhonov(model, fid, QuadraticPenalty(), 1e-3)


def test_a_finite_gradient_whose_norm_overflows_diverges():
    # g = 1e200 * grad fid is finite, but its weighted square sum is not: no
    # tolerance can be tested against that norm, so the solve diverges, at the
    # start (one adjoint) or after one step (two), where the scale turns on
    model = identity_model(8)
    ones = model.y_grid.function(np.ones(8))
    for scale, adjoints in ((lambda x: 1e200, 1), (lambda x: np.where(x == 0.0, 0.3, 1e200), 2)):
        calls = []

        def adjoint(x, w, scale=scale):
            calls.append(x)
            return scale(x) * w

        adjoint_map = GridMap(adjoint, model.x_grid, model.x_grid, model.y_grid)
        model = dataclasses.replace(model, adjoint_derivative=adjoint_map)
        with pytest.raises(DivergenceError, match="gradient is non-finite"):
            solve_tikhonov(model, Fidelity(2.0, ones), QuadraticPenalty(), 1e-3)
        assert len(calls) == adjoints


@pytest.mark.parametrize("case", ["identity", "fredholm_r2", "fredholm_r1.01", "elliptic_tv_projected"])
def test_a_record_owns_read_only_arrays_that_are_not_the_callers(case):
    if case == "identity":
        model = identity_model(8)
        fid, pen, alpha = Fidelity(2.0, model.y_grid.function(np.ones(8))), QuadraticPenalty(), 1e-3
    elif case == "elliptic_tv_projected":
        model, fid, pen, alpha = _elliptic_case(lambda grid: SmoothedTVPenalty(eps=1e-3))
    else:
        model, fid, pen, alpha = _fredholm_outlier_case()
        fid = Fidelity(2.0 if case == "fredholm_r2" else 1.01, fid.target)
    init = model.x_grid.function(np.ones(model.x_grid.n))
    for max_iters in (1, 30):
        rec = solve_tikhonov(model, fid, pen, alpha, SolveOptions(max_iters=max_iters, init=init))
        assert rec.iters > 0
        for values in (rec.x.values, rec.fx.values):
            assert not values.flags.writeable
            assert not np.shares_memory(values, init.values)
            with pytest.raises(ValueError):
                values[0] = 0.0



def _residual_case(case):
    """(model, fid, pen, alpha0, init) of a short path whose records' residuals are checked."""
    if case == "elliptic_r2":
        model, fid, pen, _ = _elliptic_case(lambda grid: SmoothedTVPenalty(eps=1e-3))
        return model, fid, pen, 1e-2, model.x_grid.function(np.ones(model.x_grid.n))
    model, fid, pen, _ = _fredholm_outlier_case()
    return model, Fidelity(2.0 if case == "fredholm_r2" else 1.01, fid.target), pen, 1.0, None


@pytest.mark.parametrize("case", ["fredholm_r2", "fredholm_r1.01", "elliptic_r2"])
def test_record_residual_is_the_lr_norm_of_its_misfit(case):
    # A record's residual is taken from the misfit sum of its accepted
    # objective, not from a second pass over F x - data: it must equal
    # lr_norm of the record's own misfit bit for bit, after steps and for a
    # solve that takes none (a converged start, and a start no trial leaves).
    model, fid, pen, alpha0, init = _residual_case(case)
    path = compute_alpha_path(model, fid, pen, alpha0, 0.5, 4, SolveOptions(max_iters=300, init=init))
    cases = [(rec, fid) for rec in path]
    assert sum(rec.iters > 0 for rec in path) >= 4
    if fid.r == 2.0:
        last = [rec for rec in path if rec.converged][-1]
        again = solve_tikhonov(model, fid, pen, last.alpha, SolveOptions(init=last.x, grad_tol_abs=last.tol))
        assert again.iters == 0 and again.converged
        cases.append((again, fid))
    blocked_model, blocked_fid, zero = _blocked_start_case(fid.r)
    blocked = solve_tikhonov(blocked_model, blocked_fid, QuadraticPenalty(), 1e-3, SolveOptions(init=zero))
    assert blocked.iters == 0 and not blocked.converged
    cases.append((blocked, blocked_fid))
    for rec, rec_fid in cases:
        assert rec.residual == lr_norm(rec.fx - rec_fid.target, rec_fid.r)
        assert rec.theta == rec.residual**rec_fid.r / rec.alpha


@pytest.mark.parametrize("name", ["theory_study", "example1", "example2_smooth", "example2_piecewise"])
def test_converged_is_exactly_the_public_gradient_test(name, preset_bundle):
    # A check from outside the solver, such as the benchmark's convergence
    # gate, recomputes |g| through the public GridFunction forms and
    # l2_inner; every record's ``converged`` must be that test with no slack.
    # The presets cover a Fredholm misfit at r = 2 and r = 1.01 and the
    # elliptic model under the quadratic, shifted-quadratic and smoothed-TV
    # penalties.
    bundle = preset_bundle(name)
    model = build_model(bundle.config.model)
    fid = Fidelity(bundle.config.fidelity_r, bundle.noisy_data)
    for result in bundle.results:
        pen = result.penalty
        for rec in result.path:
            g = model.adjoint_derivative(rec.x, fid.gradient(model.apply(rec.x))) + rec.alpha * pen.subgradient(rec.x)
            assert rec.converged == (math.sqrt(l2_inner(g, g)) <= rec.tol), (result.tag, rec.alpha)
