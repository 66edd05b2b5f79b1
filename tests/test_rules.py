import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from regupath import (
    Fidelity,
    Grid,
    QuadraticPenalty,
    SolveOptions,
    check_corollary_bounds,
    compute_alpha_path,
    discrepancy_select,
    fredholm_model,
    hanke_raus_select,
    l2_inner,
    lr_norm,
    power_index,
    run_delta_sequence,
)
from regupath.solver import AlphaPathRecord

from oracles import (estimate_kappa, fredholm_apply_matrix, oracle_theta_table, phi_inverse,
                     tikhonov_normal_equations)


def synthetic_path(alphas, residuals, r=2.0, grid=None):
    grid = grid or Grid(5)
    x = grid.zeros()
    return [
        AlphaPathRecord(
            alpha=a, x=x, fx=x, residual=res, penalty=0.0,
            theta=res**r / a, objective=res**r, iters=0, converged=True, tol=0.0,
        )
        for a, res in zip(alphas, residuals)
    ]


# ---------------------------------------------------------------------------
# theta-argmin rule

def test_single_record_path_selected():
    path = synthetic_path([0.5], [1.0])
    out = hanke_raus_select(path)
    assert out.alpha_star == 0.5 and out.rule == "hanke_raus"
    assert out.delta_star == 1.0


def test_synthetic_theta_argmin():
    # thetas (9, 4, 1, 2.5) -> third record wins
    alphas = [1.0, 0.5, 0.25, 0.125]
    residuals = [(9.0 * a) ** 0.5 for a in alphas[:1]] + [
        (4.0 * 0.5) ** 0.5, (1.0 * 0.25) ** 0.5, (2.5 * 0.125) ** 0.5
    ]
    path = synthetic_path(alphas, residuals)
    thetas = [rec.theta for rec in path]
    np.testing.assert_allclose(thetas, [9.0, 4.0, 1.0, 2.5], rtol=1e-12)
    out = hanke_raus_select(path)
    assert out.alpha_star == 0.25


def test_empty_path_rejected():
    with pytest.raises(ValueError):
        hanke_raus_select([])
    with pytest.raises(ValueError):
        discrepancy_select([], 1.0, 0.1)


def test_selection_invariant_under_permutation(rng):
    alphas = [1.0, 0.5, 0.25, 0.125, 0.0625]
    residuals = [0.9, 0.5, 0.21, 0.2, 0.19]
    path = synthetic_path(alphas, residuals)
    base = hanke_raus_select(path).alpha_star
    for _ in range(6):
        perm = list(path)
        rng.shuffle(perm)
        assert hanke_raus_select(perm).alpha_star == base


def test_ties_break_toward_larger_alpha():
    # identical thetas at two alphas: the larger alpha must win
    path = synthetic_path([1.0, 0.25], [0.5, 0.25])
    assert path[0].theta == path[1].theta
    assert hanke_raus_select(path).alpha_star == 1.0
    assert hanke_raus_select(path[::-1]).alpha_star == 1.0


def test_data_norm_scaling_leaves_argmin_unchanged(rng):
    alphas = [2.0 * 0.8**j for j in range(12)]
    residuals = np.sort(rng.uniform(0.1, 2.0, size=12))[::-1]
    r = 1.6
    base = synthetic_path(alphas, list(residuals), r=r)
    lam = 3.7
    scaled = synthetic_path(alphas, list(lam * residuals), r=r)
    out_base = hanke_raus_select(base)
    out_scaled = hanke_raus_select(scaled)
    assert out_scaled.alpha_star == out_base.alpha_star
    for rec_b, rec_s in zip(base, scaled):
        assert rec_s.theta == pytest.approx(lam**r * rec_b.theta, rel=1e-12)


def test_small_delta_star_flag_on_suspicious_selection():
    # selected residual far below the small-alpha residual scale -> warning
    alphas = [1.0, 0.5, 0.25, 0.125]
    residuals = [1.0, 1e-4, 0.9, 0.8]
    out = hanke_raus_select(synthetic_path(alphas, residuals))
    assert out.alpha_star == 0.5
    assert "small_delta_star" in out.flags
    clean = hanke_raus_select(synthetic_path(alphas, [1.0, 0.9, 0.85, 0.8]))
    assert clean.flags == ()


# ---------------------------------------------------------------------------
# discrepancy rule

def test_discrepancy_picks_first_qualifying_record():
    path = synthetic_path([1.0, 0.5, 0.25], [5.0, 3.0, 1.0])
    out = discrepancy_select(path, tau=3.5, delta=1.0)
    assert out.alpha_star == 0.5
    assert out.rule == "discrepancy" and out.tau == 3.5
    assert out.flags == ()


def test_discrepancy_returns_alpha0_when_all_qualify():
    path = synthetic_path([1.0, 0.5, 0.25], [1.0, 0.9, 0.8])
    out = discrepancy_select(path, tau=2.0, delta=1.0)
    assert out.alpha_star == 1.0


def test_discrepancy_flags_when_none_qualify():
    path = synthetic_path([1.0, 0.5, 0.25], [5.0, 4.0, 3.0])
    out = discrepancy_select(path, tau=1.0, delta=1.0)
    assert out.alpha_star == 0.25
    assert "no_qualifying_alpha" in out.flags


@settings(max_examples=50, deadline=None)
@given(st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.integers(0, 2**32 - 1))
def test_discrepancy_monotone_in_tau(tau1, tau2, seed):
    gen = np.random.default_rng(seed)
    alphas = [1.0 * 0.7**j for j in range(10)]
    residuals = np.sort(gen.uniform(0.0, 2.0, size=10))[::-1]
    path = synthetic_path(alphas, list(residuals))
    lo, hi = min(tau1, tau2), max(tau1, tau2)
    out_lo = discrepancy_select(path, lo, 1.0)
    out_hi = discrepancy_select(path, hi, 1.0)
    assert out_hi.alpha_star >= out_lo.alpha_star


# ---------------------------------------------------------------------------
# selection against the dense-oracle path

def test_selection_matches_bruteforce_argmin_over_oracle_table(fredholm_benchmark):
    from regupath import NoiseSpec, make_noisy

    model, truth, y = fredholm_benchmark
    ref_mat = fredholm_apply_matrix(101)
    w = model.x_grid.weights()
    alphas = [1.0 * 0.85**j for j in range(40)]
    opts = SolveOptions(max_iters=20000, grad_tol=1e-11, grad_tol_abs=3e-9)
    pen = QuadraticPenalty()
    for seed in range(3):
        noisy, delta = make_noisy(y, NoiseSpec(kind="gaussian", level=0.01, seed=seed), 2.0)
        fid = Fidelity(2.0, noisy)
        path = compute_alpha_path(model, fid, pen, 1.0, 0.85, 39, opts)
        selected = hanke_raus_select(path)
        table = oracle_theta_table(ref_mat, w, noisy.values, alphas)
        thetas = [row[2] for row in table]
        best = int(np.argmin(thetas))
        assert selected.alpha_star == pytest.approx(alphas[best], rel=1e-12)


# ---------------------------------------------------------------------------
# exact-data stationarity diagnostic

def test_optimality_subgradient_matches_penalty_subgradient():
    # at the exact-data quadratic minimizer, (2/alpha) F'(x)*(y - F(x)) = 2x
    model = fredholm_model(61)
    grid = model.x_grid
    t = grid.points()
    truth = grid.function(np.sin(np.pi * t))
    y = model.apply(truth)
    ref_mat = fredholm_apply_matrix(61)
    w = grid.weights()
    alpha = 0.01
    x_alpha = grid.function(tikhonov_normal_equations(ref_mat, w, y.values, alpha))
    xi = (2.0 / alpha) * model.adjoint_derivative(x_alpha, y - model.apply(x_alpha))
    expected = QuadraticPenalty().subgradient(x_alpha)
    assert lr_norm(xi - expected, 2.0) <= 1e-8 * lr_norm(expected, 2.0)


# ---------------------------------------------------------------------------
# a-posteriori bounds

def _noisy_path(fredholm_benchmark, seed, level=0.1, alpha0=1.0, q=0.85, j_max=39):
    from regupath import NoiseSpec, make_noisy

    model, truth, y = fredholm_benchmark
    noisy, delta = make_noisy(y, NoiseSpec(kind="gaussian", level=level, seed=seed), 2.0)
    fid = Fidelity(2.0, noisy)
    opts = SolveOptions(max_iters=10000, grad_tol=1e-10, grad_tol_abs=1e-7)
    path = compute_alpha_path(model, fid, QuadraticPenalty(), alpha0, q, j_max, opts)
    return model, truth, y, noisy, delta, path


def test_corollary_bounds_hold_with_empirical_kappa(fredholm_benchmark):
    model, truth, y, noisy, delta, path = _noisy_path(fredholm_benchmark, seed=0)
    out = hanke_raus_select(path)
    pen = QuadraticPenalty()
    rep = check_corollary_bounds(out, noisy - y, truth, pen, 0.85, 2.0)
    assert rep.precondition_holds  # delta^r <= alpha0 R(truth) by construction
    assert rep.delta_bound_ok and rep.alpha_bound_ok
    assert 0 < rep.kappa_estimate <= 1.0
    assert rep.delta == pytest.approx(delta, rel=1e-12)


def test_kappa_shortcut_agrees_with_estimate_kappa(fredholm_benchmark):
    # residual norms along the path equal the candidate distances fed to
    # estimate_kappa, so the two routes must coincide
    model, truth, y, noisy, delta, path = _noisy_path(fredholm_benchmark, seed=4)
    out = hanke_raus_select(path)
    rep = check_corollary_bounds(out, noisy - y, truth, QuadraticPenalty(), 0.85, 2.0)
    candidates = [rec.fx - y for rec in path]
    direct = estimate_kappa(noisy - y, candidates, 2.0)
    assert rep.kappa_estimate == pytest.approx(direct, rel=1e-12)


def test_corollary_report_degenerate_zero_noise(fredholm_benchmark):
    model, truth, y = fredholm_benchmark
    path = synthetic_path([1.0, 0.5], [0.4, 0.3], grid=model.x_grid)
    out = hanke_raus_select(path)
    # noise whose L^2 norm underflows to 0 is zero noise too
    for level in (0.0, 1e-200):
        noise = model.y_grid.function(np.full(model.y_grid.n, level))
        rep = check_corollary_bounds(out, noise, truth, QuadraticPenalty(), 0.5, 2.0)
        assert "degenerate_zero_noise" in rep.flags
        assert np.isnan(rep.kappa_estimate)
        (row,) = rep.convergence_table
        assert rep.delta == row.delta == 0.0 and rep.alpha_star == out.alpha_star
        assert np.isnan(rep.bound_ratio) and row.bregman == QuadraticPenalty().value(truth)


def test_corollary_flags_precondition_violation(fredholm_benchmark):
    model, truth, y = fredholm_benchmark
    # tiny alpha0 makes ||noise||^r > alpha0 R(truth)
    model2, truth2, y2, noisy, delta, path = _noisy_path(
        fredholm_benchmark, seed=1, level=0.5, alpha0=1e-6, q=0.5, j_max=3
    )
    out = hanke_raus_select(path)
    rep = check_corollary_bounds(out, noisy - y2, truth2, QuadraticPenalty(), 0.5, 2.0)
    assert not rep.precondition_holds
    assert "precondition_violated" in rep.flags


def test_theta_lower_bound_forces_blowup_at_small_alpha(fredholm_benchmark):
    # on a truncated grid the last theta must exceed the selected theta
    # whenever the noise condition holds (theta >= (kappa*delta)^r / alpha)
    model, truth, y, noisy, delta, path = _noisy_path(fredholm_benchmark, seed=2)
    out = hanke_raus_select(path)
    assert out.record is not path[-1]
    kappa = min(1.0, min(rec.residual for rec in path) / delta)
    for rec in path:
        assert rec.theta >= (kappa * delta) ** 2.0 / rec.alpha - 1e-12
    assert path[-1].theta > out.record.theta


def test_residual_upper_bound_from_transformed_index(fredholm_benchmark):
    # along an exact-minimizer path with a range source, the residual obeys
    # residual <= 5*delta + PhiInverse(2^r * alpha)
    model, truth, y = fredholm_benchmark
    grid = model.x_grid
    t = grid.points()
    w_src = grid.function(np.sin(np.pi * t) + 0.5 * np.sin(3 * np.pi * t))
    x_dag = model.apply(w_src)
    y_dag = model.apply(x_dag)
    rng_local = np.random.default_rng(8)
    e = grid.function(rng_local.standard_normal(grid.n))
    e = (1.0 / lr_norm(e, 2.0)) * e
    delta = 0.05
    data = y_dag + delta * e
    ref_mat = fredholm_apply_matrix(101)
    w = grid.weights()
    idx = power_index(2.0 * lr_norm(w_src, 2.0), 1.0)
    pen = QuadraticPenalty()
    for j in range(0, 30, 3):
        alpha = 1.0 * 0.8**j
        x = grid.function(tikhonov_normal_equations(ref_mat, w, data.values, alpha))
        residual = lr_norm(model.apply(x) - data, 2.0)
        bound = 5.0 * delta + phi_inverse(idx, 2.0, 4.0 * alpha)
        assert residual <= bound * (1.0 + 1e-9)
        # Bregman bound: D <= delta^r/alpha + phi(delta + residual) for beta = 0
        breg = lr_norm(x - x_dag, 2.0) ** 2
        assert breg <= delta**2 / alpha + idx(delta + residual) + 1e-9


# ---------------------------------------------------------------------------
# shrinking-noise studies

def test_delta_sequence_single_level(fredholm_benchmark):
    model, truth, y = fredholm_benchmark
    rep = run_delta_sequence(
        model, QuadraticPenalty(), 2.0, 1.0, 0.8, 10, [0.05], seed=3, x_dagger=truth,
        opts=SolveOptions(max_iters=2000, grad_tol=1e-9, grad_tol_abs=1e-6),
    )
    assert len(rep.convergence_table) == 1
    assert rep.convergence_table[0].delta == 0.05


def test_delta_sequence_requires_decreasing_levels(fredholm_benchmark):
    model, truth, y = fredholm_benchmark
    with pytest.raises(ValueError):
        run_delta_sequence(model, QuadraticPenalty(), 2.0, 1.0, 0.8, 5, [0.1, 0.1], 0, truth)
    with pytest.raises(ValueError):
        run_delta_sequence(model, QuadraticPenalty(), 2.0, 1.0, 0.8, 5, [], 0, truth)


def test_delta_sequence_rows_sorted_and_reproducible(fredholm_benchmark):
    model, truth, y = fredholm_benchmark
    opts = SolveOptions(max_iters=1500, grad_tol=1e-9, grad_tol_abs=1e-5)
    kwargs = dict(seed=5, x_dagger=truth, opts=opts)
    rep1 = run_delta_sequence(model, QuadraticPenalty(), 2.0, 1.0, 0.8, 15, [0.2, 0.1], **kwargs)
    rep2 = run_delta_sequence(model, QuadraticPenalty(), 2.0, 1.0, 0.8, 15, [0.2, 0.1], **kwargs)
    deltas = [row.delta for row in rep1.convergence_table]
    assert deltas == sorted(deltas, reverse=True)
    for a, b in zip(rep1.convergence_table, rep2.convergence_table):
        assert a.theta_star == b.theta_star and a.bregman == b.bregman
