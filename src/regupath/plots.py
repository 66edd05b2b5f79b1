"""Deterministic SVG line charts for experiment bundles (no plotting backend)."""

from __future__ import annotations

import math
import warnings
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .experiments import ResultBundle, _save, rule_tag

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 55


class _Axis:
    """One axis of a chart: its padded range, in log10 units on a log axis, and its ticks."""

    def __init__(self, values: Sequence[np.ndarray], log: bool, px0: float, px1: float):
        self.log = log
        vals = np.concatenate([np.empty(0), *values])
        if vals.size:
            lo, hi = float(vals.min()), float(vals.max())
            self.lo, self.hi = (math.log10(lo), math.log10(hi)) if log else (lo, hi)
        else:  # nothing to show: the unit range, the decade [1, 10] on a log axis
            self.lo, self.hi = 0.0, 1.0
        if self.hi <= self.lo:  # a unit wide, or an ulp of lo where lo + 1 rounds back to lo
            self.hi = self.lo + max(1.0, math.ulp(self.lo))
        pad = 0.04 * (self.hi - self.lo)
        self.lo -= pad
        self.hi += pad
        self.px0, self.px1 = px0, px1

    def to_px(self, values) -> np.ndarray:
        """Pixel positions of ``values``; ``math.log10`` on a log axis, as ``np.log10`` can differ in the last bit."""
        u = np.asarray(values, dtype=float)
        if self.log:
            u = np.array([math.log10(v) for v in u.tolist()], dtype=float)
        frac = (u - self.lo) / (self.hi - self.lo)
        return self.px0 + frac * (self.px1 - self.px0)

    def ticks(self) -> List[float]:
        """The decades of a log axis, every (n // 7)-th of n; the multiples of a 1-2-5 step on a linear axis."""
        if self.log:  # log10(10**lo) may differ from lo by an ulp, which can move floor or ceil at an integer
            lo, hi = (math.log10(10.0**u) for u in (self.lo, self.hi))
            exps = list(range(math.floor(lo), math.ceil(hi) + 1))
            return [10.0**e for e in exps[::max(1, len(exps) // 7)]]
        raw = (self.hi - self.lo) / 5
        mag = 10.0 ** math.floor(math.log10(raw))
        step = next(mult * mag for mult in (1.0, 2.0, 5.0, 10.0) if raw <= mult * mag)
        ticks = []
        t = max(math.ceil(self.lo / step) * step, self.lo)  # the rounded first multiple can fall below lo
        while t <= self.hi + 1e-12 * step:
            ticks.append(0.0 if abs(t) < 1e-12 * step else t)
            if t + step == t:  # a step below half an ulp of t: the axis is constant to float precision
                break
            t += step
        return ticks


def line_chart(
    series: Sequence[Tuple[str, np.ndarray, np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
    xlog: bool = False,
    ylog: bool = False,
    markers: Optional[Sequence[Tuple[float, float]]] = None,
) -> str:
    """Render labelled (x, y) series as a fixed-size SVG string."""
    xs, ys = [], []
    for _, x, y in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if xlog:
            keep &= x > 0
        if ylog:
            keep &= y > 0
        xs.append(x[keep])
        ys.append(y[keep])
    x_axis = _Axis(xs, xlog, _ML, _W - _MR)
    y_axis = _Axis(ys, ylog, _H - _MB, _MT)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">{title}</text>',
    ]

    x_ticks = x_axis.ticks()
    for t, px in zip(x_ticks, x_axis.to_px(x_ticks).tolist()):
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MT}" x2="{px:.2f}" y2="{_H - _MB}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:.3g}</text>'
        )
    y_ticks = y_axis.ticks()
    for t, py in zip(y_ticks, y_axis.to_px(y_ticks).tolist()):
        parts.append(
            f'<line x1="{_ML}" y1="{py:.2f}" x2="{_W - _MR}" y2="{py:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 6}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{t:.3g}</text>'
        )
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {(_MT + _H - _MB) / 2:.1f})">{ylabel}</text>'
    )

    for i, ((label, _, _), x, y) in enumerate(zip(series, xs, ys)):
        color = _PALETTE[i % len(_PALETTE)]
        if x.size:
            xy = np.column_stack((x_axis.to_px(x), y_axis.to_px(y))).ravel().tolist()
            pts = " ".join(["%.2f,%.2f"] * x.size) % tuple(xy)
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        ly = _MT + 18 + 16 * i
        parts.append(
            f'<line x1="{_W - _MR - 150}" y1="{ly}" x2="{_W - _MR - 120}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 114}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )

    shown = [(mx, my) for mx, my in markers or () if (not xlog or mx > 0) and (not ylog or my > 0)]
    for cx, cy in zip(x_axis.to_px([mx for mx, _ in shown]).tolist(), y_axis.to_px([my for _, my in shown]).tolist()):
        parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="5" '
            f'fill="none" stroke="black" stroke-width="1.5"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plots(bundle: ResultBundle, out_dir) -> List[Path]:
    """Write the data, theta-vs-alpha, and reconstruction charts for a bundle."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    created: List[Path] = []

    def save(name: str, svg: str) -> None:
        created.append(_save(out / name, svg))

    t_data = bundle.exact_data.points()
    save("data.svg", line_chart(
        [("exact data", t_data, bundle.exact_data.values),
         ("noisy data", t_data, bundle.noisy_data.values)],
        title="data", xlabel="t", ylabel="y",
    ))

    t_x = bundle.truth.points()
    for result in bundle.results:
        if not result.path:
            warnings.warn(f"penalty {result.tag}: empty path, skipping theta plot")
        else:
            alphas = np.array([rec.alpha for rec in result.path])
            thetas = np.array([rec.theta for rec in result.path])
            markers = [
                (o.alpha_star, o.record.theta) for o in result.outcomes if o.rule == "hanke_raus"
            ]
            save(f"theta_{result.tag}.svg", line_chart(
                [("theta", alphas, thetas)],
                title=f"theta vs alpha ({result.tag})",
                xlabel="alpha", ylabel="theta", xlog=True, ylog=True,
                markers=markers,
            ))

        for outcome in result.outcomes:
            tag = rule_tag(outcome.rule, outcome.tau)
            save(f"recon_{result.tag}_{tag}.svg", line_chart(
                [("truth", t_x, bundle.truth.values),
                 ("reconstruction", t_x, outcome.record.x.values)],
                title=f"reconstruction ({result.tag}, {tag})",
                xlabel="t", ylabel="x",
            ))
    return created
