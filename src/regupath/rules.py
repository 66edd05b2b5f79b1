"""Parameter choice rules and the a-posteriori theory diagnostics."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .grid import GridFunction, is_real, lr_norm, require
from .models import ForwardModel, NoiseOverflowError
from .penalties import Fidelity, IndexFunction, Penalty, bregman_distance
from .solver import AlphaPathRecord, SolveOptions, compute_alpha_path


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


@dataclass
class TheoryReport:
    """Computable quantities behind the a-posteriori bounds and limit studies."""

    kappa_estimate: float
    delta: float
    delta_star: float
    alpha_star: float
    lower_bound_alpha: float
    bound_ratio: float
    convergence_table: List["DeltaLevelRow"] = field(default_factory=list)
    precondition_holds: bool = False
    delta_bound_ok: bool = False
    alpha_bound_ok: bool = False
    flags: Tuple[str, ...] = ()


@dataclass(frozen=True)
class DeltaLevelRow:
    """One noise level of a shrinking-noise study."""

    delta: float
    alpha_star: float
    theta_star: float
    bregman: float
    kappa_hat: float


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


def _level_row(outcome: RuleOutcome, delta: float, bregman: float, kappa: float) -> DeltaLevelRow:
    return DeltaLevelRow(delta, outcome.alpha_star, outcome.record.theta, bregman, kappa)


def _bound_report(
    outcome: RuleOutcome, kappa: float, delta: float, r_dagger: float, q: float, r: float,
    rows: List[DeltaLevelRow], bound_ratio: float = float("nan"), flags: Sequence[str] = (),
) -> TheoryReport:
    """The a-posteriori bound fields of a theta-argmin selection.

    delta_* >= kappa * delta and alpha_* >= q kappa^r delta^r / ((q+1) R(x_dagger)),
    under the small-noise precondition delta^r <= alpha_0 * R(x_dagger).
    """
    alpha0 = max(rec.alpha for rec in outcome.path)
    precondition = delta**r <= alpha0 * r_dagger
    lower_bound = q * kappa**r * delta**r / ((q + 1.0) * r_dagger) if r_dagger > 0 else 0.0
    lead = ("kappa_condition_failed",) if kappa == 0.0 else ()
    lead += () if precondition else ("precondition_violated",)
    return TheoryReport(
        kappa_estimate=kappa,
        delta=delta,
        delta_star=outcome.delta_star,
        alpha_star=outcome.alpha_star,
        lower_bound_alpha=lower_bound,
        bound_ratio=bound_ratio,
        convergence_table=rows,
        precondition_holds=precondition,
        delta_bound_ok=outcome.delta_star >= kappa * delta - 1e-10,
        alpha_bound_ok=outcome.alpha_star >= lower_bound - 1e-10,
        flags=lead + tuple(flags),
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
    """Evaluate the a-posteriori lower bounds for a theta-argmin selection.

    The noise irregularity constant is estimated from the path itself (see
    ``kappa_hat``).  Both bounds then hold by construction whenever the
    small-noise precondition ||noise||^r <= alpha_0 * R(x_dagger) does; the
    report records the precondition rather than failing when it is violated.

    When an index function is supplied, the report carries the quotient of
    the measured Bregman error by its a-posteriori bound
    (1 + delta^r/delta_*^r) * (delta^r + phi(delta + delta_*)).
    """
    flags: List[str] = []
    r_dagger = pen.value(x_dagger)

    if float(np.max(np.abs(noise.values))) == 0.0:
        return TheoryReport(
            kappa_estimate=float("nan"),
            delta=0.0,
            delta_star=outcome.delta_star,
            alpha_star=outcome.alpha_star,
            lower_bound_alpha=0.0,
            bound_ratio=float("nan"),
            precondition_holds=True,
            delta_bound_ok=True,
            alpha_bound_ok=True,
            flags=("degenerate_zero_noise",),
        )

    delta = lr_norm(noise, r)
    kappa = kappa_hat(outcome.path, delta)
    bound_ratio = float("nan")
    rows: List[DeltaLevelRow] = []
    if index_fn is not None:
        if outcome.delta_star == 0.0:
            flags.append("degenerate_zero_residual")
        else:
            breg = bregman_distance(pen, pen.subgradient(x_dagger), outcome.record.x, x_dagger)
            denom = (1.0 + delta**r / outcome.delta_star**r) * (
                delta**r + index_fn(delta + outcome.delta_star)
            )
            bound_ratio = breg / denom
            rows.append(_level_row(outcome, delta, breg, kappa))
    return _bound_report(outcome, kappa, delta, r_dagger, q, r, rows, bound_ratio, flags)


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
    max_workers: int = 1,
) -> TheoryReport:
    """Shrinking-noise study: one fixed unit noise direction, scaled levels.

    A single direction e with ||e||_r = 1 is drawn once from the seed and
    shared across all levels, so the data at level delta_k is exactly
    y + delta_k * e and the irregularity constant is level-independent.
    For each level the full alpha path is solved, the theta-argmin rule
    applied, and (delta, alpha_*, theta_*, Bregman error) recorded.  A level
    whose data leave the float range raises NoiseOverflowError before any
    path is solved.
    """
    deltas = list(deltas)
    require(noise_level_problems(deltas))

    y = model.apply(x_dagger)
    rng = np.random.default_rng(seed)
    raw = y.grid.function(rng.standard_normal(y.n))
    direction = (1.0 / lr_norm(raw, r)) * raw
    xi = pen.subgradient(x_dagger)
    with np.errstate(over="ignore"):
        noisy = [y.values + delta * direction.values for delta in deltas]
    if not np.isfinite(noisy).all():
        raise NoiseOverflowError(f"noise levels up to {deltas[0]!r} give noisy data beyond the float range")

    def one_level(delta: float, values: np.ndarray):
        fid = Fidelity(r, y.with_values(values))
        path = compute_alpha_path(model, fid, pen, alpha0, q, j_max, opts)
        outcome = hanke_raus_select(path)
        breg = bregman_distance(pen, xi, outcome.record.x, x_dagger)
        return _level_row(outcome, delta, breg, kappa_hat(path, delta)), outcome

    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(one_level, deltas, noisy))
    else:
        results = [one_level(d, values) for d, values in zip(deltas, noisy)]

    rows = [row for row, _ in results]
    kappa_uniform = min(row.kappa_hat for row in rows)
    return _bound_report(results[-1][1], kappa_uniform, deltas[-1], pen.value(x_dagger), q, r, rows)
