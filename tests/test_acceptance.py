"""End-to-end acceptance checks.

Each test exercises one shipped guarantee at its stated tolerance and prints
one PASS line with the measured numbers (run with ``pytest -v -s`` to see
them).  The expected values come from independent oracles computed in
``oracles.py``: dense normal-equations solves, brute-force argmin tables,
and high-resolution quadrature.
"""

import time

import numpy as np
import pytest

from regupath import (
    Fidelity,
    NoiseSpec,
    QuadraticPenalty,
    ShiftedQuadraticPenalty,
    SmoothedTVPenalty,
    SolveOptions,
    compute_alpha_path,
    discrepancy_select,
    elliptic_model,
    fredholm_model,
    hanke_raus_select,
    l2_inner,
    lr_norm,
    make_noisy,
    power_index,
    preset,
    run_delta_sequence,
    run_experiment,
    write_bundle,
)
from regupath import Grid
from regupath.experiments import (PenaltySpec, example1_config, example2_piecewise_config,
                                  example2_smooth_config, l1_error, tv_roughness)

from oracles import (
    check_corollary_bounds,
    directional_derivative,
    elliptic_jacobian,
    fredholm_apply_matrix,
    oracle_theta_table,
    phi_inverse,
    tikhonov_normal_equations,
)


def _truth_on(grid):
    t = grid.points()
    return grid.function(4.0 * t * (1.0 - t) + np.sin(2.0 * np.pi * t))


def test_acceptance_1_linear_solver_matches_dense_oracle():
    """Solver vs normal equations: <=1e-5 relative on a 40-point grid, <=30 s."""
    n = 401
    model = fredholm_model(n)
    truth = _truth_on(model.x_grid)
    y = model.apply(truth)
    noisy, _ = make_noisy(y, NoiseSpec(kind="gaussian", level=0.01, seed=42), 2.0)
    fid = Fidelity(2.0, noisy)
    pen = QuadraticPenalty()
    opts = SolveOptions(max_iters=30000, grad_tol=1e-11, grad_tol_abs=3e-9)

    started = time.monotonic()
    path = compute_alpha_path(model, fid, pen, 1.0, 0.85, 39, opts)
    elapsed = time.monotonic() - started

    ref_mat = fredholm_apply_matrix(n)
    w = model.x_grid.weights()
    worst = 0.0
    assert len(path) == 40
    for rec in path:
        x_ref = model.x_grid.function(
            tikhonov_normal_equations(ref_mat, w, noisy.values, rec.alpha)
        )
        rel = lr_norm(rec.x - x_ref, 2.0) / lr_norm(x_ref, 2.0)
        worst = max(worst, rel)
        assert rel <= 1e-5, f"alpha={rec.alpha}: {rel}"
    assert elapsed <= 30.0
    print(f"\nACCEPTANCE 1 (oracle equivalence): PASS worst_rel={worst:.2e} time={elapsed:.1f}s")


def test_acceptance_2_selection_matches_bruteforce_on_ten_seeds():
    """Theta-argmin equals a brute-force argmin over a dense-oracle table."""
    n = 101
    model = fredholm_model(n)
    truth = _truth_on(model.x_grid)
    y = model.apply(truth)
    ref_mat = fredholm_apply_matrix(n)
    w = model.x_grid.weights()
    alphas = [1.0 * 0.85**j for j in range(40)]
    opts = SolveOptions(max_iters=20000, grad_tol=1e-11, grad_tol_abs=3e-9)
    pen = QuadraticPenalty()
    for seed in range(10):
        noisy, _ = make_noisy(y, NoiseSpec(kind="gaussian", level=0.01, seed=seed), 2.0)
        fid = Fidelity(2.0, noisy)
        path = compute_alpha_path(model, fid, pen, 1.0, 0.85, 39, opts)
        selected = hanke_raus_select(path)
        table = oracle_theta_table(ref_mat, w, noisy.values, alphas)
        best = int(np.argmin([row[2] for row in table]))
        assert selected.alpha_star == pytest.approx(alphas[best], rel=1e-12), f"seed {seed}"
    print("\nACCEPTANCE 2 (rule vs brute force): PASS exact index agreement, 10 seeds")


def test_acceptance_3_adjoint_and_gradient_suite(rng):
    """Adjoint identities at 1e-8 and derivative/gradient FD checks at 1e-5."""
    probes = 200

    # integral-equation model: linear, adjoint exact; its Jacobian is the quadrature matrix
    model = fredholm_model(101)
    g = model.x_grid
    x0 = _truth_on(g)
    jac = fredholm_apply_matrix(g.n)
    worst_adj = 0.0
    for _ in range(probes):
        h = g.function(rng.normal(size=g.n))
        v = g.function(rng.normal(size=g.n))
        lhs = l2_inner(g.function(jac @ h.values), v)
        rhs = l2_inner(h, model.adjoint_derivative(x0, v))
        worst_adj = max(worst_adj, abs(lhs - rhs) / max(abs(lhs), 1e-30))
    assert worst_adj <= 1e-8

    # elliptic model: adjoint identity and central-difference check against the dense Jacobian
    N = 100
    u_grid = Grid(N - 1, convention="interior")
    src = u_grid.from_callable(lambda t: 100.0 * np.exp(-10.0 * (t - 0.5) ** 2))
    ell = elliptic_model(N, 1.0, 6.0, src)
    cg, ug = ell.x_grid, ell.y_grid
    c0 = cg.from_callable(lambda t: 1.0 + np.sin(np.pi * t))
    jac = elliptic_jacobian(ell, c0)
    worst_ell = 0.0
    worst_fd = 0.0
    s = 1e-6
    for _ in range(probes):
        h = cg.function(rng.normal(size=cg.n))
        v = ug.function(rng.normal(size=ug.n))
        dv = ug.function(jac @ h.values)
        lhs = l2_inner(dv, v)
        rhs = l2_inner(h, ell.adjoint_derivative(c0, v))
        worst_ell = max(worst_ell, abs(lhs - rhs) / max(abs(lhs), 1e-30))
        fd = (0.5 / s) * (ell.apply(c0 + s * h) - ell.apply(c0 + (-s) * h))
        worst_fd = max(worst_fd, lr_norm(fd - dv, 2.0) / lr_norm(dv, 2.0))
    assert worst_ell <= 1e-8
    assert worst_fd <= 1e-5

    # penalty and misfit gradients against central differences
    grid = Grid(81)
    t = grid.points()
    smooth = grid.function(np.sin(2.0 * np.pi * t) + 2.0 * t)
    target = grid.function(np.cos(np.pi * t))
    cases = [
        (QuadraticPenalty(), smooth, 1e-6),
        (ShiftedQuadraticPenalty(grid.function(t)), smooth, 1e-6),
        (SmoothedTVPenalty(eps=1e-4, mu=0.1), smooth, 1e-8),
        (SmoothedTVPenalty(eps=0.5, mu=0.001), smooth, 1e-6),
    ]
    worst_pen = 0.0
    for pen, point, step in cases:
        grad = pen.subgradient(point)
        for _ in range(20):
            d = rng.normal(size=grid.n)
            fd = directional_derivative(lambda v: pen.value(grid.function(v)), point.values, d, step)
            exact = l2_inner(grad, grid.function(d))
            worst_pen = max(worst_pen, abs(fd - exact) / max(abs(exact), 1e-30))
    for r in (1.01, 2.0):
        fid = Fidelity(r, target)
        point = grid.function(target.values + rng.uniform(0.5, 1.5, size=grid.n))
        grad = fid.gradient(point)
        for _ in range(20):
            d = rng.normal(size=grid.n)
            fd = directional_derivative(lambda v: fid.value(grid.function(v)), point.values, d, 1e-6)
            exact = l2_inner(grad, grid.function(d))
            worst_pen = max(worst_pen, abs(fd - exact) / max(abs(exact), 1e-30))
    assert worst_pen <= 1e-5
    print(
        f"\nACCEPTANCE 3 (adjoint/gradient suite): PASS adjoints {worst_adj:.1e}/{worst_ell:.1e} "
        f"fd {worst_fd:.1e}/{worst_pen:.1e}"
    )


def test_acceptance_4_selection_lower_bounds_twenty_seeds():
    """delta_* >= kappa*delta and alpha_* >= q kappa^r delta^r/((q+1) R(truth))."""
    n = 101
    model = fredholm_model(n)
    truth = _truth_on(model.x_grid)
    y = model.apply(truth)
    pen = QuadraticPenalty()
    q = 0.85
    alpha0 = 1.0
    opts = SolveOptions(max_iters=8000, grad_tol=1e-10, grad_tol_abs=1e-7)
    r_truth = pen.value(truth)
    checked = 0
    for seed in range(20):
        noisy, delta = make_noisy(y, NoiseSpec(kind="gaussian", level=0.1, seed=seed), 2.0)
        # the geometric grid must reach the scale used by the bound argument
        assert alpha0 * q**39 <= delta**2 / r_truth
        fid = Fidelity(2.0, noisy)
        path = compute_alpha_path(model, fid, pen, alpha0, q, 39, opts)
        outcome = hanke_raus_select(path)
        report = check_corollary_bounds(outcome, path, noisy - y, truth, pen, q, 2.0)
        assert report.precondition_holds
        assert report.delta_star >= report.kappa_estimate * report.delta - 1e-10
        assert report.alpha_star >= report.lower_bound_alpha - 1e-10
        checked += 1
    assert checked == 20
    print("\nACCEPTANCE 4 (selection lower bounds): PASS 20/20 seeds, zero violations")


def test_acceptance_5_error_bound_ratio_stays_bounded():
    """Bregman error over its a-posteriori bound, four noise decades."""
    n = 101
    model = fredholm_model(n)
    grid = model.x_grid
    t = grid.points()
    w_src = grid.function(np.sin(np.pi * t) + 0.5 * np.sin(3.0 * np.pi * t))
    x_dag = model.apply(w_src)  # truth in the operator range
    y = model.apply(x_dag)
    pen = QuadraticPenalty()
    index = power_index(2.0 * lr_norm(w_src, 2.0), 1.0)
    gen = np.random.default_rng(3)
    e_raw = grid.function(gen.standard_normal(n))
    e = (1.0 / lr_norm(e_raw, 2.0)) * e_raw
    opts = SolveOptions(max_iters=6000, grad_tol=1e-10, grad_tol_abs=1e-8)
    ratios = []
    for delta in (1e-1, 1e-2, 1e-3, 1e-4):
        fid = Fidelity(2.0, y + delta * e)
        path = compute_alpha_path(model, fid, pen, 1.0, 0.75, 34, opts)
        outcome = hanke_raus_select(path)
        report = check_corollary_bounds(
            outcome, path, delta * e, x_dag, pen, 0.75, 2.0, index_fn=index
        )
        assert np.isfinite(report.bound_ratio)
        ratios.append(report.bound_ratio)
    bound_constant = 10.0  # recorded: measured ratios sit near 1e-2
    assert all(r <= bound_constant for r in ratios)
    assert ratios[-1] <= 2.0 * max(ratios[:3])
    print(
        "\nACCEPTANCE 5 (error-bound ratio): PASS ratios="
        + " ".join(f"{r:.3f}" for r in ratios)
        + f" constant={bound_constant}"
    )


def test_acceptance_6_shrinking_noise_convergence():
    """Five halving noise levels: theta_* and Bregman error both collapse."""
    n = 101
    model = fredholm_model(n)
    grid = model.x_grid
    t = grid.points()
    w_src = grid.function(0.10 * (np.sin(np.pi * t) + 0.5 * np.sin(3.0 * np.pi * t)))
    x_dag = model.apply(w_src)
    pen = QuadraticPenalty()
    opts = SolveOptions(max_iters=3000, grad_tol=1e-9, grad_tol_abs=1e-6)
    started = time.monotonic()
    report = run_delta_sequence(
        model, pen, 2.0, 1.0, 0.8, 35,
        [0.2, 0.1, 0.05, 0.025, 0.0125], seed=7, x_dagger=x_dag, opts=opts,
    )
    elapsed = time.monotonic() - started
    thetas = [row.theta_star for row in report.convergence_table]
    bregs = [row.bregman for row in report.convergence_table]
    assert thetas[-1] <= 0.05 * thetas[0]
    assert bregs[-1] <= 0.1 * bregs[0]
    assert all(b < a for a, b in zip(bregs[1:], bregs[2:])), bregs
    assert elapsed <= 300.0
    print(
        f"\nACCEPTANCE 6 (shrinking noise): PASS theta ratio {thetas[-1] / thetas[0]:.4f} "
        f"bregman ratio {bregs[-1] / bregs[0]:.4f} time={elapsed:.0f}s"
    )


def test_acceptance_7a_outlier_study_orderings(preset_bundle):
    """Theta-argmin near best-on-grid; underestimated tau is worse and rougher."""
    assert preset("example1") == example1_config()  # so the shared preset run is this study
    bundle = preset_bundle("example1")
    result = bundle.results[0]
    truth = bundle.truth
    errs = [lr_norm(rec.x - truth, 2.0) for rec in result.path]
    best = min(errs)
    by_rule = {o.rule if o.tau is None else f"tau{o.tau}": o for o in result.outcomes}
    err = lambda o: lr_norm(o.record.x - truth, 2.0)
    hr, t101, t1615, t996 = (
        by_rule["hanke_raus"], by_rule["tau1.01"], by_rule["tau1.615"], by_rule["tau0.996"]
    )
    assert err(hr) <= 3.0 * best
    assert err(t996) > err(t101)
    assert tv_roughness(t996.record.x) > tv_roughness(t101.record.x)
    assert err(t101) <= err(t1615)
    print(
        f"\nACCEPTANCE 7a (outlier study): PASS hr_err={err(hr):.4f} best={best:.4f} "
        f"ratio={err(hr) / best:.2f} e(0.996)={err(t996):.4f} > e(1.01)={err(t101):.4f}"
    )


def test_acceptance_7b_reference_shift_improves_reconstruction():
    """The shifted penalty beats the plain one on the smooth coefficient."""
    bundle = run_experiment(example2_smooth_config())
    truth = bundle.truth
    errs = {
        res.tag: lr_norm(res.outcomes[0].record.x - truth, 2.0) for res in bundle.results
    }
    assert errs["shifted_quadratic"] <= errs["quadratic"]
    print(
        f"\nACCEPTANCE 7b (reference shift): PASS R2={errs['shifted_quadratic']:.4f} "
        f"<= R1={errs['quadratic']:.4f}"
    )


def test_acceptance_7c_tv_beats_quadratic_on_steps():
    """On the piecewise coefficient, TV halves the quadratic penalty's L1 error."""
    tv_bundle = run_experiment(example2_piecewise_config())
    quad_cfg = example2_piecewise_config()
    quad_cfg.penalties = [PenaltySpec(kind="quadratic")]
    quad_bundle = run_experiment(quad_cfg)
    truth = tv_bundle.truth
    l1_tv = l1_error(tv_bundle.results[0].outcomes[0].record.x, truth)
    l1_quad = l1_error(quad_bundle.results[0].outcomes[0].record.x, truth)
    assert l1_tv <= 0.5 * l1_quad
    print(f"\nACCEPTANCE 7c (TV vs quadratic): PASS l1_tv={l1_tv:.4f} l1_quad={l1_quad:.4f}")


def test_acceptance_8_preset_runs_are_bit_identical(tmp_path):
    """Same preset, same seed: byte-identical CSV outputs."""
    out_a = write_bundle(run_experiment(example2_piecewise_config()), tmp_path / "a")
    out_b = write_bundle(run_experiment(example2_piecewise_config()), tmp_path / "b")
    assert [p.name for p in out_a] == [p.name for p in out_b]
    compared = 0
    for pa, pb in zip(out_a, out_b):
        assert pa.read_bytes() == pb.read_bytes(), pa.name
        compared += 1
    assert compared >= 4
    print(f"\nACCEPTANCE 8 (determinism): PASS {compared} files bit-identical")


def test_acceptance_9_inverse_transform_ratio_ladder():
    """[PhiInverse(s)]^r / s strictly decreasing over s = 1e-1 .. 1e-6."""
    ladder = [10.0**-k for k in range(1, 7)]
    for scale, exponent, r in (
        (1.0, 1.0, 2.0),     # linear family
        (2.0, 1.0, 2.0),
        (1.0, 0.5, 2.0),     # fractional-power family
        (3.0, 0.6, 1.5),
    ):
        index = power_index(scale, exponent)
        ratios = [phi_inverse(index, r, s) ** r / s for s in ladder]
        assert all(b < a for a, b in zip(ratios, ratios[1:])), (f"{scale:g}*t^{exponent:g}", ratios)
    print("\nACCEPTANCE 9 (inverse-transform ladder): PASS strict decrease, both families")
