import math
import numbers
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
import scipy.linalg.lapack
from scipy.linalg import solve_banded

import regupath.grid
from regupath import (
    Grid,
    GridFunction,
    GridMismatchError,
    SingularSystemError,
    l2_inner,
    lr_norm,
    solve_tridiagonal,
)
from regupath.grid import is_integer, is_real

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


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5000), st.integers(-200, 200), st.integers(-200, 200), st.integers(0, 2**32 - 1))
def test_the_grid_sums_are_ndarray_sum_bit_for_bit(n, lo, hi, seed):
    # np.add.reduce is the reduction behind ndarray.sum, so the pairwise
    # summation order, and every bit, is the same for magnitudes 1e-200..1e200
    gen = np.random.default_rng(seed)
    lo, hi = min(lo, hi), max(lo, hi)
    v = gen.choice([-1.0, 1.0], n) * 10.0 ** gen.uniform(lo, hi, n)
    w, u = np.abs(gen.normal(size=n)), gen.normal(size=n)
    assert float(np.add.reduce(v)).hex() == float(v.sum()).hex()
    with np.errstate(over="ignore"):
        assert regupath.grid.lr_power_sum(w, v, 2.0).hex() == float((w * v * v).sum()).hex()
        assert regupath.grid.lr_power_sum(w, v, 1.01).hex() == float((w * np.abs(v) ** 1.01).sum()).hex()
        assert regupath.grid.weighted_inner(w, v, u).hex() == float((w * (v * u)).sum()).hex()


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


def _abc_is_real(value):
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


def _abc_is_integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@settings(max_examples=400)
@given(st.one_of(
    st.integers(), st.just(10**400), st.just(-10**400), st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(), st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_), st.fractions(),
    st.decimals(allow_nan=True, allow_infinity=True), st.text(max_size=3), st.none()))
def test_the_exact_type_fast_paths_agree_with_the_number_abcs(value):
    # int and float take a type test; every other value, numpy scalars and
    # float subclasses included, still takes the numbers ABC test
    assert is_real(value) is _abc_is_real(value)
    assert is_integer(value) is _abc_is_integer(value)


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
# scipy's LAPACK wrappers, loaded at the first solve without the scipy.linalg package

def _fresh_python(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this regupath; fail with its stderr."""
    src = str(Path(regupath.__file__).resolve().parents[1])
    python_path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": python_path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_scipy_loads_at_the_first_lapack_solve_and_not_before(tmp_path):
    # a descent-only run (example1's r = 1.01 path), its bundle and its plots
    # never import scipy; the first tridiagonal solve loads the wrapper
    # module alone, without scipy's package init (which runs first only on
    # Windows), and later solves reuse it without loading again
    _fresh_python(f"""
import sys
import numpy as np
import regupath

assert "scipy" not in sys.modules and "numpy.random" not in sys.modules
cfg = regupath.preset("example1")
cfg.model.n, cfg.j_max, cfg.solver.max_iters = 41, 6, 200
bundle = regupath.run_experiment(cfg)
regupath.write_bundle(bundle, {str(tmp_path)!r})
regupath.emit_plots(bundle, {str(tmp_path)!r})
assert "scipy" not in sys.modules

system = (np.ones(2), np.full(3, 4.0), np.ones(2), np.ones(3))
first = regupath.solve_tridiagonal(*system)
loaded = sys.modules["scipy.linalg._flapack"]
assert "scipy.linalg" not in sys.modules
assert sys.platform == "win32" or "scipy" not in sys.modules

assert np.array_equal(regupath.solve_tridiagonal(*system), first)
assert regupath.grid.lapack() is loaded and regupath.grid.lapack.cache_info().misses == 1
""")


def test_a_scipy_linalg_imported_after_the_first_solve_reuses_the_loaded_routines():
    # the wrapper module loaded without scipy's init is the one scipy.linalg
    # then imports, and solve_banded's dgtsv gives solve_tridiagonal's bits
    _fresh_python("""
import numpy as np
import regupath.grid

system = (np.array([1.0, -2.0, 0.5]), np.array([4.0, 3.0, -5.0, 6.0]), np.array([0.25, 1.0, -1.0]),
          np.array([1.0, 2.0, 3.0, 4.0]))
first = regupath.solve_tridiagonal(*system)
import scipy.linalg

assert scipy.linalg.lapack.dgtsv is regupath.grid.lapack().dgtsv
sub, diag, sup, rhs = system
banded = np.array([np.r_[0.0, sup], diag, np.r_[sub, 0.0]])
assert scipy.linalg.solve_banded((1, 1), banded, rhs).tobytes() == first.tobytes()
""")


def test_on_windows_scipy_is_imported_before_the_wrapper_module_loads():
    # scipy's _distributor_init adds the DLL directory the extension needs
    # there; sysconfig's variables are read first, as they would not load
    # under the borrowed platform name
    _fresh_python("""
import sys
import sysconfig
import numpy as np
import regupath.grid

sysconfig.get_config_vars()
found = regupath.grid.FileFinder

def finder(*args):
    assert "scipy" in sys.modules, "the extension was searched for before scipy's import"
    return found(*args)

regupath.grid.FileFinder = finder
platform, sys.platform = sys.platform, "win32"
try:
    regupath.solve_tridiagonal(np.ones(2), np.full(3, 4.0), np.ones(2), np.ones(3))
finally:
    sys.platform = platform
assert "scipy" in sys.modules and "scipy.linalg._flapack" in sys.modules
""")


def test_solves_on_every_lapack_route_leave_scipy_linalg_unimported():
    # one tridiagonal solve (dgtsv), one Fredholm Gauss-Newton step (dpbtrf
    # and dpbtrs) and one elliptic step with a fixed coordinate (dgbsv), each
    # counted on the loaded wrapper module, which every call site reads
    _fresh_python("""
import sys
import numpy as np
import regupath
from regupath import Grid, QuadraticPenalty, elliptic_model, fredholm_model, solve_tridiagonal

calls = []
lapack = regupath.grid.lapack()
for name in ("dgtsv", "dpbtrf", "dpbtrs", "dgbsv"):
    routine = getattr(lapack, name)
    setattr(lapack, name, lambda *a, routine=routine, name=name, **kw: calls.append(name) or routine(*a, **kw))

solve_tridiagonal(np.ones(2), np.full(3, 4.0), np.ones(2), np.ones(3))
source = Grid(19, convention="interior").function(np.full(19, 100.0))
for model, fixed in ((fredholm_model(21), []), (elliptic_model(20, 1.0, 6.0, source), [10])):
    n = model.x_grid.n
    free = np.ones(n, dtype=bool)
    free[fixed] = False
    diag, sub = QuadraticPenalty().hessian(model.x_grid, np.zeros(n))
    regupath.models.gauss_newton_step(model.jacobian(np.ones(n)), free, diag, sub, np.ones(n))
assert calls[0] == "dgtsv" and {"dpbtrf", "dpbtrs", "dgbsv"} <= set(calls), calls
assert "scipy.linalg" not in sys.modules
""")


def test_a_run_and_a_shrinking_noise_study_leave_numpy_ma_and_scipy_linalg_unimported():
    # np.median's nan check imports numpy.ma; the rules take their medians
    # without it
    _fresh_python("""
import sys
import numpy as np
import regupath

cfg = regupath.preset("example1")
cfg.model.n, cfg.j_max, cfg.solver.max_iters = 41, 6, 200
regupath.run_experiment(cfg)
model = regupath.fredholm_model(41)
x_dagger = model.apply(model.x_grid.function(np.sin(np.pi * model.x_grid.points())))
regupath.run_delta_sequence(model, regupath.QuadraticPenalty(), 2.0, 1.0, 0.8, 10, deltas=[0.1, 0.05, 0.025],
                            seed=7, x_dagger=x_dagger)
assert "numpy.ma" not in sys.modules and "scipy.linalg" not in sys.modules
""")


def test_a_scipy_linalg_imported_first_lends_regupath_its_routines():
    _fresh_python("""
import scipy.linalg.lapack
import regupath.grid

assert regupath.grid.lapack() is scipy.linalg._flapack
for name in ("dgtsv", "dpbtrf", "dpbtrs", "dgbsv"):
    assert getattr(regupath.grid.lapack(), name) is getattr(scipy.linalg.lapack, name), name
""")


@pytest.mark.parametrize("route", ["file", "fallback"])
def test_the_loaded_routines_give_scipy_linalg_lapacks_bits(route, monkeypatch):
    lapack = scipy.linalg.lapack
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    if route == "fallback":
        class FindsNothing:
            def __init__(self, *args):
                pass

            def find_spec(self, name):
                return None

        monkeypatch.setattr(regupath.grid, "FileFinder", FindsNothing)
    loaded = regupath.grid._load_flapack()
    if route == "fallback":
        assert loaded is scipy.linalg._flapack
    gen = np.random.default_rng(33)
    for _ in range(200):
        n = int(gen.integers(4, 40))
        tri = (gen.uniform(-1, 1, n - 1), gen.uniform(-0.1, 0.1, n), gen.uniform(-1, 1, n - 1))
        spd = gen.uniform(-1, 1, (4, n))  # lower band, 3 sub-diagonals, diagonally dominant
        spd[0] = 8.0 + gen.uniform(0, 1, n)
        general = gen.uniform(-1, 1, (10, n))  # kl = ku = 3 and dgbsv's 3 rows of fill-in
        rhs = gen.normal(size=n)
        for ours, theirs, args, kw in ((loaded.dgtsv, lapack.dgtsv, (*tri, rhs), {}),
                                       (loaded.dpbsv, lapack.dpbsv, (spd, rhs), {"lower": 1}),
                                       (loaded.dgbsv, lapack.dgbsv, (3, 3, general, rhs), {})):
            got, want = ours(*args, **kw), theirs(*args, **kw)
            assert got[-1] == want[-1] == 0  # info: every system is nonsingular
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        # DPBSV is DPBTRF then DPBTRS, so the split solve keeps its bits
        factor, info = loaded.dpbtrf(spd, lower=1)
        x, solved = loaded.dpbtrs(factor, rhs, lower=1)
        want_factor, want_x = lapack.dpbsv(spd, rhs, lower=1)[:2]
        assert info == solved == 0
        assert np.array_equal(factor, want_factor) and np.array_equal(x, want_x)


def test_an_imported_wrapper_module_is_reused_without_a_file_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("searched for the extension file")

    monkeypatch.setattr(regupath.grid, "FileFinder", no_search)
    assert regupath.grid._load_flapack() is sys.modules["scipy.linalg._flapack"]


# ---------------------------------------------------------------------------
# CSV serialization

_SINES = Grid(7).function(np.sin(7.0 * Grid(7).points()) / 3.0)
_EDGE_FLOATS = np.array([0.1, 1.0 / 3.0, 2.0 / 3.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308])


@pytest.mark.parametrize("t, values", [
    (_SINES.points(), _SINES.values),
    # values that need all 17 digits, a negative zero, the least subnormal and the float range's ends
    (np.arange(_EDGE_FLOATS.size, dtype=float), _EDGE_FLOATS),
], ids=["sines", "edge_floats"])
def test_write_csv_roundtrips_exact_floats(tmp_path, t, values):
    from regupath.experiments import _save, _table

    path = _save(tmp_path / "f.csv", _table(["t", "value"], [t, values]))
    text = path.read_text(encoding="utf-8")
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == "t,value"
    assert lines[1:] == [f"{format(a, '.17g')},{format(b, '.17g')}" for a, b in zip(t.tolist(), values.tolist())]
    loaded = np.loadtxt(path, delimiter=",", skiprows=1)
    # bit for bit, so that -0.0 and 0.0 differ
    np.testing.assert_array_equal(loaded[:, 0].view(np.int64), t.view(np.int64))
    np.testing.assert_array_equal(loaded[:, 1].view(np.int64), values.view(np.int64))


def test_write_csv_quotes_text_and_prints_bools_as_the_csv_module_did():
    import csv
    import io

    from regupath.experiments import _table

    texts = ["plain", "a,b", 'say "hi"', "two\nlines", "", " padded ", "semi;colon"]
    flags = [True, np.bool_(False), np.bool_(True), False, True, False, True]
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["text", "flag"])
    writer.writerows((text, "true" if flag else "false") for text, flag in zip(texts, flags))
    assert _table(["text", "flag"], [texts, flags]) == expected.getvalue()
