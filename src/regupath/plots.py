"""Deterministic SVG line charts for experiment bundles (no plotting backend)."""

from __future__ import annotations

import math
import warnings
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .experiments import ResultBundle, rule_tag

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 55


def _nice_ticks(lo: float, hi: float) -> List[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> List[float]:
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    exps = list(range(lo_e, hi_e + 1))
    stride = max(1, len(exps) // 7)
    return [10.0**e for e in exps[::stride]]


class _Axis:
    def __init__(self, lo: float, hi: float, log: bool, px0: float, px1: float):
        self.log = log
        if log:
            self.lo, self.hi = math.log10(lo), math.log10(hi)
        else:
            self.lo, self.hi = lo, hi
        if self.hi <= self.lo:
            self.hi = self.lo + 1.0
        pad = 0.04 * (self.hi - self.lo)
        self.lo -= pad
        self.hi += pad
        self.px0, self.px1 = px0, px1

    def to_px(self, v: float) -> float:
        u = math.log10(v) if self.log else v
        frac = (u - self.lo) / (self.hi - self.lo)
        return self.px0 + frac * (self.px1 - self.px0)


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
    all_x = np.concatenate([v for v in xs if v.size]) if any(v.size for v in xs) else np.array([0.0, 1.0])
    all_y = np.concatenate([v for v in ys if v.size]) if any(v.size for v in ys) else np.array([0.0, 1.0])
    x_axis = _Axis(float(all_x.min()), float(all_x.max()), xlog, _ML, _W - _MR)
    y_axis = _Axis(float(all_y.min()), float(all_y.max()), ylog, _H - _MB, _MT)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">{title}</text>',
    ]

    if xlog:
        x_ticks = _log_ticks(10.0**x_axis.lo, 10.0**x_axis.hi)
    else:
        x_ticks = _nice_ticks(x_axis.lo, x_axis.hi)
    if ylog:
        y_ticks = _log_ticks(10.0**y_axis.lo, 10.0**y_axis.hi)
    else:
        y_ticks = _nice_ticks(y_axis.lo, y_axis.hi)

    for t in x_ticks:
        px = x_axis.to_px(t)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MT}" x2="{px:.2f}" y2="{_H - _MB}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:.3g}</text>'
        )
    for t in y_ticks:
        py = y_axis.to_px(t)
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
            pts = " ".join(f"{x_axis.to_px(a):.2f},{y_axis.to_px(b):.2f}" for a, b in zip(x, y))
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

    for mx, my in markers or ():
        if (not xlog or mx > 0) and (not ylog or my > 0):
            parts.append(
                f'<circle cx="{x_axis.to_px(mx):.2f}" cy="{y_axis.to_px(my):.2f}" r="5" '
                f'fill="none" stroke="black" stroke-width="1.5"/>'
            )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plots(bundle: ResultBundle, out_dir) -> List[Path]:
    """Write the data, theta-vs-alpha, and reconstruction charts for a bundle."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    created: List[Path] = []

    t_data = bundle.exact_data.points()
    data_svg = line_chart(
        [("exact data", t_data, bundle.exact_data.values),
         ("noisy data", t_data, bundle.noisy_data.values)],
        title="data", xlabel="t", ylabel="y",
    )
    p = out / "data.svg"
    p.write_text(data_svg, encoding="utf-8")
    created.append(p)

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
            svg = line_chart(
                [("theta", alphas, thetas)],
                title=f"theta vs alpha ({result.tag})",
                xlabel="alpha", ylabel="theta", xlog=True, ylog=True,
                markers=markers,
            )
            p = out / f"theta_{result.tag}.svg"
            p.write_text(svg, encoding="utf-8")
            created.append(p)

        for outcome in result.outcomes:
            tag = rule_tag(outcome.rule, outcome.tau)
            svg = line_chart(
                [("truth", t_x, bundle.truth.values),
                 ("reconstruction", t_x, outcome.record.x.values)],
                title=f"reconstruction ({result.tag}, {tag})",
                xlabel="t", ylabel="x",
            )
            p = out / f"recon_{result.tag}_{tag}.svg"
            p.write_text(svg, encoding="utf-8")
            created.append(p)
    return created
