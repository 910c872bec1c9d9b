"""Minimal deterministic SVG line plots.

Self-contained static documents with a fixed 800x500 viewBox, axis ticks,
and an index-based legend. Output depends only on the inputs, so plot
files are byte-stable across runs and platforms.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH = 800
HEIGHT = 500
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 50

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#e377c2",
)


def _nice_step(span: float) -> float:
    raw = span / 5  # about five ticks per axis
    power = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 1.0
    for mult in (1.0, 2.0, 5.0, 10.0):
        if mult * power >= raw:
            return mult * power
    return 10.0 * power


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(value) < 1e-12 * step else value)
        value += step
    return ticks


def _fmt(value: float) -> str:
    return f"{value:.2f}".rstrip("0").rstrip(".") or "0"


def render_line_plot(
    x,
    series,
    labels,
    *,
    title: str,
    x_label: str,
    y_label: str,
    log_y: bool = False,
) -> str:
    """Render one or more curves over a shared x axis as an SVG document."""
    x = np.asarray(x, dtype=float)
    series = [np.asarray(s, dtype=float) for s in series]

    if log_y:
        floor = min((float(s[s > 0].min()) for s in series if np.any(s > 0)), default=1.0)
        floor /= 10.0
        series = [np.log10(np.maximum(s, floor)) for s in series]

    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo = min(float(s.min()) for s in series)
    y_hi = max(float(s.max()) for s in series)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(v: float) -> float:
        return MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]

    # Axes and ticks.
    axis_y = MARGIN_TOP + plot_h
    out.append(
        f'<line x1="{MARGIN_LEFT}" y1="{axis_y}" x2="{MARGIN_LEFT + plot_w}" '
        f'y2="{axis_y}" stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{axis_y}" stroke="black" stroke-width="1"/>'
    )
    for tick in _ticks(x_lo, x_hi):
        px = sx(tick)
        out.append(
            f'<line x1="{px:.2f}" y1="{axis_y}" x2="{px:.2f}" y2="{axis_y + 5}" '
            f'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{axis_y + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        py = sy(tick)
        label = f"1e{_fmt(tick)}" if log_y else _fmt(tick)
        out.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{py:.2f}" x2="{MARGIN_LEFT}" '
            f'y2="{py:.2f}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )

    out.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 12}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">{x_label}</text>'
    )
    y_title = ("log10 " if log_y else "") + y_label
    out.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h / 2:.1f})">{y_title}</text>'
    )

    for idx, (values, label) in enumerate(zip(series, labels)):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(x, values))
        out.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = MARGIN_TOP + 8 + 16 * idx
        lx = MARGIN_LEFT + plot_w - 150
        out.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_line_plot(path, x, series, labels, **kwargs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_line_plot(x, series, labels, **kwargs))
