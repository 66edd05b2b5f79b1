import dataclasses
import functools
import math

import numpy as np
import pytest

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
    solve_tikhonov,
)

from oracles import fredholm_apply_matrix, reference_solve_tikhonov, tikhonov_normal_equations


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


def test_fredholm_gauss_newton_is_one_band_solve_per_step_and_only_for_r_2(noisy_benchmark, call_log):
    # a 36-alpha r = 2 path on one fresh model runs one dpbsv per Gauss-Newton
    # step and builds its band tables once; an r = 1.01 path runs descent and
    # never solves or builds them
    _, _, noisy, _ = noisy_benchmark
    calls = call_log(regupath.models, "dpbsv", "_sandwich_table")
    solves, tables = calls["dpbsv"], calls["_sandwich_table"]
    path = compute_alpha_path(fredholm_model(101), Fidelity(2.0, noisy), QuadraticPenalty(), 1.0, 0.8, 35)
    assert len(path) == 36 and all(rec.converged for rec in path)
    assert sum(rec.iters for rec in path) == 36
    assert len(solves) == 36 and len(tables) == 1
    solves.clear()
    tables.clear()
    path = compute_alpha_path(fredholm_model(101), Fidelity(1.01, noisy), QuadraticPenalty(), 1.0, 0.8, 35,
                              SolveOptions(max_iters=20))
    assert len(path) == 36 and len(solves) == 0 and len(tables) == 0


def test_elliptic_gauss_newton_is_one_band_solve_per_free_step(call_log):
    # an r = 2 elliptic path whose iterates stay above the bound fixes no
    # coordinate, so each Gauss-Newton step is one congruent dpbsv and none
    # solves the saddle system by dgbsv
    model, fid, pen, _ = _elliptic_case(lambda grid: SmoothedTVPenalty(eps=1e-3))
    solves = call_log(regupath.models, "dpbsv", "dgbsv")
    init = model.x_grid.function(np.ones(model.x_grid.n))
    path = compute_alpha_path(model, fid, pen, 1e-2, 0.5, 4, SolveOptions(init=init))
    assert all(rec.converged and rec.x.values.min() > 0.0 for rec in path)
    assert len(solves["dpbsv"]) == sum(rec.iters for rec in path) > len(path)
    assert solves["dgbsv"] == []


def test_singular_gauss_newton_system_falls_back_to_gradient_step(rng):
    # a model whose Gauss-Newton solve always fails still converges, by
    # gradient steps, to the closed-form minimizer data/(1+alpha)
    calls = []

    def singular(*args):
        calls.append(1)
        raise SingularSystemError("singular")

    model = dataclasses.replace(identity_model(), gauss_newton=singular)
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
    starts, seen = [], []
    apply, solve = model.apply, regupath.solver.solve_tikhonov
    model = dataclasses.replace(model, apply=spied(apply, lambda v: starts.append(v is init.values)))
    monkeypatch.setattr(regupath.solver, "solve_tikhonov", lambda *args: seen.append(args[4]) or solve(*args))
    path = compute_alpha_path(model, fid, pen, alpha0, 0.6, 4, opts)
    assert sum(starts) == 1
    assert len(seen) == len(path) == 5 and seen[0] is opts
    assert path[0].tol == max(opts.grad_tol * math.sqrt(l2_inner(g, g)), opts.grad_tol_abs)
    for prev, step_opts in zip(path, seen[1:]):
        assert step_opts.init is prev.x and step_opts.grad_tol_abs == path[0].tol


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
    built, post_init = [], GridFunction.__post_init__
    with monkeypatch.context() as patch:
        patch.setattr(GridFunction, "__post_init__", lambda self: built.append(1) or post_init(self))
        rec = solve_tikhonov(model, fid, pen, alpha, opts)
    return len(built), rec.iters


def test_solves_build_grid_functions_only_for_their_records(monkeypatch):
    # the record's x and fx are the only GridFunctions a solve builds, however
    # many iterations it takes; its residual is taken on the arrays
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
