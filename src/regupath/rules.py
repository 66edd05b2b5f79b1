"""Parameter choice rules and the a-posteriori theory diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .grid import GridFunction, is_real, l2_inner, require
from .models import ForwardModel, NoiseOverflowError, gaussian_draw
from .penalties import Fidelity, Penalty, bregman_terms
from .solver import AlphaPathRecord, PathAborted, SolveOptions, compute_alpha_path


@dataclass(frozen=True, eq=False)
class RuleOutcome:
    """Selected regularization parameter together with its provenance.

    ``alpha_star`` and ``delta_star`` are the parameter and the residual (in
    the data norm) of the selected record.
    Flags: ``no_qualifying_alpha`` (discrepancy rule found no grid point
    under its threshold) and ``small_delta_star`` (the selected residual is
    suspiciously small relative to the small-alpha tail of the path and the
    selection should be treated with care).
    """

    rule: str
    record: AlphaPathRecord
    tau: Optional[float] = None
    flags: Tuple[str, ...] = ()

    @property
    def alpha_star(self) -> float:
        return self.record.alpha

    @property
    def delta_star(self) -> float:
        return self.record.residual


@dataclass(frozen=True)
class DeltaLevelRow:
    """One noise level: its selection, the Bregman error, kappa-hat and the error's bound ratio."""

    delta: float
    alpha_star: float
    theta_star: float
    bregman: float
    kappa_hat: float
    bound_ratio: float


@dataclass
class TheoryReport:
    """Computable quantities behind the a-posteriori bounds and limit studies.

    Only what was measured is stored.  ``delta``, ``alpha_star`` and
    ``bound_ratio`` are those of the last row of ``convergence_table``, the
    level the bounds are evaluated at, and ``kappa_estimate`` is the smallest
    kappa-hat over the rows.  The two bound checks and ``flags`` follow from
    these: ``kappa_condition_failed`` marks a zero kappa and
    ``precondition_violated`` a failed precondition.
    """

    delta_star: float
    lower_bound_alpha: float
    convergence_table: List[DeltaLevelRow]
    precondition_holds: bool

    @property
    def delta(self) -> float:
        return self.convergence_table[-1].delta

    @property
    def alpha_star(self) -> float:
        return self.convergence_table[-1].alpha_star

    @property
    def bound_ratio(self) -> float:
        return self.convergence_table[-1].bound_ratio

    @property
    def kappa_estimate(self) -> float:
        return min(row.kappa_hat for row in self.convergence_table)

    @property
    def delta_bound_ok(self) -> bool:
        return self.delta_star >= self.kappa_estimate * self.delta - 1e-10

    @property
    def alpha_bound_ok(self) -> bool:
        return self.alpha_star >= self.lower_bound_alpha - 1e-10

    @property
    def flags(self) -> Tuple[str, ...]:
        flags = ("kappa_condition_failed",) if self.kappa_estimate == 0.0 else ()
        return flags + (() if self.precondition_holds else ("precondition_violated",))


def _median(values: Sequence[float]) -> float:
    """The median of finite values, bit for bit ``np.median``'s: the middle one, or the mean (a + b) / 2 of two.

    ``np.median`` imports ``numpy.ma`` for its nan check on its first call.
    """
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _small_delta_flag(path: Sequence[AlphaPathRecord], delta_star: float) -> bool:
    """Whether delta_star is below a tenth of the median residual of the smallest-alpha quarter."""
    by_alpha = sorted(path, key=lambda rec: rec.alpha)
    tail = by_alpha[: max(1, len(by_alpha) // 4)]
    return delta_star < 0.1 * _median([rec.residual for rec in tail])


def hanke_raus_select(path: Sequence[AlphaPathRecord]) -> RuleOutcome:
    """Pick the grid parameter minimizing theta = residual^r / alpha.

    Ties are broken toward the larger alpha, so the selection is a pure
    argmin independent of the ordering of the input list.
    """
    if not path:
        raise ValueError("cannot select from an empty path")
    best = min(path, key=lambda rec: (rec.theta, -rec.alpha))
    flags = ("small_delta_star",) if _small_delta_flag(path, best.residual) else ()
    return RuleOutcome(rule="hanke_raus", record=best, flags=flags)


def discrepancy_select(path: Sequence[AlphaPathRecord], tau: float, delta: float) -> RuleOutcome:
    """Largest grid alpha whose residual is at most tau * delta.

    If no grid point qualifies the outcome carries the smallest-alpha
    record flagged ``no_qualifying_alpha``.
    """
    if not path:
        raise ValueError("cannot select from an empty path")
    if not (is_real(tau) and tau > 0):
        raise ValueError(f"tau must be finite and positive, got {tau!r}")
    if not (is_real(delta) and delta >= 0):
        raise ValueError(f"delta must be finite and nonnegative, got {delta!r}")
    qualifying = [rec for rec in path if rec.residual <= tau * delta]
    if qualifying:
        return RuleOutcome(rule="discrepancy", record=max(qualifying, key=lambda rec: rec.alpha), tau=tau)
    return RuleOutcome(rule="discrepancy", record=min(path, key=lambda rec: rec.alpha), tau=tau,
                       flags=("no_qualifying_alpha",))


def kappa_hat(path: Sequence[AlphaPathRecord], delta: float) -> float:
    """Noise irregularity estimate min(1, min_j residual_j / delta) of a path; NaN at delta = 0.

    For a record with minimizer x the residual image F(x) - y_exact differs
    from the noise by exactly F(x) - data, so ||noise - v|| equals the
    stored residual and this is the empirical kappa over the path's images.
    """
    if delta == 0.0:
        return float("nan")
    return min(1.0, min(rec.residual for rec in path) / delta)


def _evaluate_level(
    path: Sequence[AlphaPathRecord], outcome: RuleOutcome, delta: float, x_dagger: GridFunction,
    r_dagger: float, xi_dagger: GridFunction, r: float, index_fn: Optional[Callable[[float], float]],
) -> DeltaLevelRow:
    """The row of one selection from ``path`` at noise level delta, with its Bregman error to x_dagger.

    That error reads R(x_*) from the record; R(x_dagger) and xi_dagger = dR(x_dagger) are the caller's.
    ``kappa_hat`` is that of ``path``.  ``bound_ratio`` is the Bregman error
    over its a-posteriori bound
    (1 + delta^r/delta_*^r) * (delta^r + phi(delta + delta_*)); it is NaN
    without an index function phi or when delta_* = 0.
    """
    breg = float(bregman_terms(outcome.record.penalty, r_dagger, l2_inner(xi_dagger, outcome.record.x - x_dagger)))
    ratio = float("nan")
    if index_fn is not None and outcome.delta_star > 0.0:
        ds = outcome.delta_star
        ratio = breg / ((1.0 + delta**r / ds**r) * (delta**r + index_fn(delta + ds)))
    return DeltaLevelRow(delta, outcome.alpha_star, outcome.record.theta, breg, kappa_hat(path, delta), ratio)


def _bound_report(
    outcome: RuleOutcome, alpha0: float, r_dagger: float, q: float, r: float, rows: List[DeltaLevelRow],
) -> TheoryReport:
    """The report of a theta-argmin selection at the last row's level, with kappa uniform over the rows.

    delta_* >= kappa * delta and alpha_* >= q kappa^r delta^r / ((q+1) R(x_dagger)),
    under the small-noise precondition delta^r <= alpha_0 * R(x_dagger).
    The alpha lower bound is 0 when R(x_dagger) = 0.
    """
    delta = rows[-1].delta
    kappa = min(row.kappa_hat for row in rows)
    lower_bound = q * kappa**r * delta**r / ((q + 1.0) * r_dagger) if r_dagger > 0 else 0.0
    return TheoryReport(outcome.delta_star, lower_bound, rows, delta**r <= alpha0 * r_dagger)


def noise_level_problems(deltas: Sequence[float]) -> Iterator[str]:
    """Every reason a list of noise levels makes no shrinking-noise study."""
    if not deltas:
        yield "need at least one noise level"
    if not all(is_real(d) and d > 0 for d in deltas):
        yield f"noise levels must be finite and positive, got {list(deltas)!r}"
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        yield f"noise levels must be strictly decreasing, got {list(deltas)!r}"


def run_delta_sequence(
    model: ForwardModel,
    pen: Penalty,
    r: float,
    alpha0: float,
    q: float,
    j_max: int,
    deltas: Sequence[float],
    seed: int,
    x_dagger: GridFunction,
    opts: Optional[SolveOptions] = None,
    index_fn: Optional[Callable[[float], float]] = None,
    max_workers: int = 1,
) -> TheoryReport:
    """Shrinking-noise study: one fixed unit noise direction, scaled levels.

    A single direction e with ||e||_r = 1 is drawn once from the seed and
    shared across all levels, so the data at level delta_k is exactly
    y + delta_k * e and the irregularity constant is level-independent.
    For each level the full alpha path is solved, the theta-argmin rule
    applied, and its row evaluated by ``_evaluate_level``, with ``index_fn``
    giving the bound ratio.  The report's bounds are those of the last level,
    with kappa the smallest kappa-hat over the levels and alpha_0 the
    ``alpha0`` passed in (see ``_bound_report``).  A level whose data leave
    the float range raises NoiseOverflowError before any path is solved; a
    level whose path aborts re-raises its PathAborted with the level named
    and, as ``partial``, the report of the levels finished before it (None if
    there are none).  ``max_workers`` must be 1; it stays
    only because ``bench/run.py`` passes it, and goes with that argument in
    the benchmark-only change that re-baselines the benchmark (ROADMAP).
    """
    if max_workers != 1:
        raise ValueError(f"levels are solved one after another; max_workers must be 1, got {max_workers!r}")
    deltas = list(deltas)
    require(noise_level_problems(deltas))

    y = model.apply(x_dagger)
    raw, norm = gaussian_draw(np.random.default_rng(seed), y.grid, r)
    direction = (1.0 / norm) * raw
    with np.errstate(over="ignore"):
        noisy = [y.values + delta * direction for delta in deltas]
    if not np.isfinite(noisy).all():
        raise NoiseOverflowError(f"noise levels up to {deltas[0]!r} give noisy data beyond the float range")

    r_dagger, xi_dagger = pen.value(x_dagger), pen.subgradient(x_dagger)
    rows: List[DeltaLevelRow] = []
    for delta, values in zip(deltas, noisy):
        try:
            path = compute_alpha_path(model, Fidelity(r, y.with_values(values)), pen, alpha0, q, j_max, opts)
        except PathAborted as exc:
            partial = _bound_report(outcome, alpha0, r_dagger, q, r, rows) if rows else None
            raise PathAborted(f"{exc} (delta={delta!r})", exc.records, partial) from exc
        outcome = hanke_raus_select(path)
        rows.append(_evaluate_level(path, outcome, delta, x_dagger, r_dagger, xi_dagger, r, index_fn))
    return _bound_report(outcome, alpha0, r_dagger, q, r, rows)
