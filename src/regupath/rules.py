"""Parameter choice rules and the a-posteriori theory diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .grid import GridFunction, is_real, lr_norm, require
from .models import ForwardModel, NoiseOverflowError, gaussian_draw
from .penalties import Fidelity, IndexFunction, Penalty, bregman_distance
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
    path: Tuple[AlphaPathRecord, ...]
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

    ``delta``, ``alpha_star`` and ``bound_ratio`` are those of the last row of
    ``convergence_table``, the level the bounds are evaluated at.
    """

    kappa_estimate: float
    delta_star: float
    lower_bound_alpha: float
    convergence_table: List[DeltaLevelRow]
    precondition_holds: bool
    delta_bound_ok: bool
    alpha_bound_ok: bool
    flags: Tuple[str, ...] = ()

    @property
    def delta(self) -> float:
        return self.convergence_table[-1].delta

    @property
    def alpha_star(self) -> float:
        return self.convergence_table[-1].alpha_star

    @property
    def bound_ratio(self) -> float:
        return self.convergence_table[-1].bound_ratio


def _small_delta_flag(path: Sequence[AlphaPathRecord], delta_star: float) -> bool:
    """Whether delta_star is below a tenth of the median residual of the smallest-alpha quarter."""
    by_alpha = sorted(path, key=lambda rec: rec.alpha)
    tail = by_alpha[: max(1, len(by_alpha) // 4)]
    return delta_star < 0.1 * float(np.median([rec.residual for rec in tail]))


def hanke_raus_select(path: Sequence[AlphaPathRecord]) -> RuleOutcome:
    """Pick the grid parameter minimizing theta = residual^r / alpha.

    Ties are broken toward the larger alpha, so the selection is a pure
    argmin independent of the ordering of the input list.
    """
    if not path:
        raise ValueError("cannot select from an empty path")
    best = min(path, key=lambda rec: (rec.theta, -rec.alpha))
    flags = []
    if _small_delta_flag(path, best.residual):
        flags.append("small_delta_star")
    return RuleOutcome(
        rule="hanke_raus",
        record=best,
        path=tuple(sorted(path, key=lambda rec: -rec.alpha)),
        flags=tuple(flags),
    )


def discrepancy_select(path: Sequence[AlphaPathRecord], tau: float, delta: float) -> RuleOutcome:
    """Largest grid alpha whose residual is at most tau * delta.

    If no grid point qualifies the outcome carries the last (smallest-alpha)
    record flagged ``no_qualifying_alpha``.
    """
    if not path:
        raise ValueError("cannot select from an empty path")
    if not tau > 0:
        raise ValueError("tau must be positive")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    ordered = sorted(path, key=lambda rec: -rec.alpha)
    chosen = None
    flags: Tuple[str, ...] = ()
    for rec in ordered:
        if rec.residual <= tau * delta:
            chosen = rec
            break
    if chosen is None:
        chosen = ordered[-1]
        flags = ("no_qualifying_alpha",)
    return RuleOutcome(
        rule="discrepancy",
        record=chosen,
        path=tuple(ordered),
        tau=tau,
        flags=flags,
    )


def kappa_hat(path: Sequence[AlphaPathRecord], delta: float) -> float:
    """Noise irregularity estimate min(1, min_j residual_j / delta) of a path.

    For a record with minimizer x the residual image F(x) - y_exact differs
    from the noise by exactly F(x) - data, so ||noise - v|| equals the
    stored residual and this is the empirical kappa over the path's images.
    """
    return min(1.0, min(rec.residual for rec in path) / delta)


def _evaluate_level(
    outcome: RuleOutcome, delta: float, kappa: float, x_dagger: GridFunction, pen: Penalty, r: float,
    index_fn: Optional[IndexFunction],
) -> DeltaLevelRow:
    """The row of one selection at noise level delta, with its Bregman error to x_dagger.

    ``bound_ratio`` is the Bregman error over its a-posteriori bound
    (1 + delta^r/delta_*^r) * (delta^r + phi(delta + delta_*)); it is NaN
    without an index function phi or when delta_* = 0.
    """
    breg = bregman_distance(pen, pen.subgradient(x_dagger), outcome.record.x, x_dagger)
    ratio = float("nan")
    if index_fn is not None and outcome.delta_star > 0.0:
        ds = outcome.delta_star
        ratio = breg / ((1.0 + delta**r / ds**r) * (delta**r + index_fn(delta + ds)))
    return DeltaLevelRow(delta, outcome.alpha_star, outcome.record.theta, breg, kappa, ratio)


def _bound_report(
    outcome: RuleOutcome, kappa: float, r_dagger: float, q: float, r: float, rows: List[DeltaLevelRow],
) -> TheoryReport:
    """The a-posteriori bound fields of a theta-argmin selection at the last row's level.

    delta_* >= kappa * delta and alpha_* >= q kappa^r delta^r / ((q+1) R(x_dagger)),
    under the small-noise precondition delta^r <= alpha_0 * R(x_dagger).
    """
    delta = rows[-1].delta
    alpha0 = max(rec.alpha for rec in outcome.path)
    precondition = delta**r <= alpha0 * r_dagger
    lower_bound = q * kappa**r * delta**r / ((q + 1.0) * r_dagger) if r_dagger > 0 else 0.0
    flags = ("kappa_condition_failed",) if kappa == 0.0 else ()
    flags += () if precondition else ("precondition_violated",)
    return TheoryReport(
        kappa_estimate=kappa,
        delta_star=outcome.delta_star,
        lower_bound_alpha=lower_bound,
        convergence_table=rows,
        precondition_holds=precondition,
        delta_bound_ok=outcome.delta_star >= kappa * delta - 1e-10,
        alpha_bound_ok=outcome.alpha_star >= lower_bound - 1e-10,
        flags=flags,
    )


def check_corollary_bounds(
    outcome: RuleOutcome,
    noise: GridFunction,
    x_dagger: GridFunction,
    pen: Penalty,
    q: float,
    r: float,
    index_fn: Optional[IndexFunction] = None,
) -> TheoryReport:
    """Evaluate the a-posteriori bounds for a theta-argmin selection.

    The noise irregularity constant is estimated from the path itself (see
    ``kappa_hat``).  Both lower bounds then hold by construction whenever the
    small-noise precondition ||noise||^r <= alpha_0 * R(x_dagger) does; the
    report records the precondition rather than failing when it is violated.
    The report's one row carries the Bregman error and, when an index
    function is supplied, its bound ratio (see ``_evaluate_level``).  Noise
    of norm zero gives the flag ``degenerate_zero_noise`` and a NaN kappa.
    """
    delta = lr_norm(noise, r)
    kappa = kappa_hat(outcome.path, delta) if delta > 0.0 else float("nan")
    rows = [_evaluate_level(outcome, delta, kappa, x_dagger, pen, r, index_fn)]
    if delta == 0.0:
        return TheoryReport(
            kappa_estimate=kappa,
            delta_star=outcome.delta_star,
            lower_bound_alpha=0.0,
            convergence_table=rows,
            precondition_holds=True,
            delta_bound_ok=True,
            alpha_bound_ok=True,
            flags=("degenerate_zero_noise",),
        )
    return _bound_report(outcome, kappa, pen.value(x_dagger), q, r, rows)


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
    index_fn: Optional[IndexFunction] = None,
    max_workers: int = 1,
) -> TheoryReport:
    """Shrinking-noise study: one fixed unit noise direction, scaled levels.

    A single direction e with ||e||_r = 1 is drawn once from the seed and
    shared across all levels, so the data at level delta_k is exactly
    y + delta_k * e and the irregularity constant is level-independent.
    For each level the full alpha path is solved, the theta-argmin rule
    applied, and its row evaluated as ``check_corollary_bounds`` evaluates
    one selection, with ``index_fn`` giving the bound ratio.  A level
    whose data leave the float range raises NoiseOverflowError before any
    path is solved; a level whose path aborts re-raises its PathAborted with
    the level named and, as ``partial``, the report of the levels finished
    before it (None if there are none).  ``max_workers`` must be 1; it stays
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

    def report(outcome: RuleOutcome, rows: List[DeltaLevelRow]) -> TheoryReport:
        # the bounds at the last level solved, with kappa uniform over the levels solved
        kappa_uniform = min(row.kappa_hat for row in rows)
        return _bound_report(outcome, kappa_uniform, pen.value(x_dagger), q, r, rows)

    rows: List[DeltaLevelRow] = []
    for delta, values in zip(deltas, noisy):
        try:
            path = compute_alpha_path(model, Fidelity(r, y.with_values(values)), pen, alpha0, q, j_max, opts)
        except PathAborted as exc:
            partial = report(outcome, rows) if rows else None
            raise PathAborted(f"{exc} (delta={delta!r})", exc.records, partial) from exc
        outcome = hanke_raus_select(path)
        rows.append(_evaluate_level(outcome, delta, kappa_hat(path, delta), x_dagger, pen, r, index_fn))
    return report(outcome, rows)
