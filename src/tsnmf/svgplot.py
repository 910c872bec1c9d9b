"""Minimal deterministic SVG line plots.

Self-contained static documents with a fixed 800x500 viewBox, axis ticks,
and an index-based legend. Output depends only on the inputs, so plot
files are byte-stable across runs and platforms.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .linalg import first_bad

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


def _ticks(lo: float, hi: float) -> list[tuple[float, str]]:
    step = _nice_step(hi - lo)
    ticks = []
    value = math.ceil(lo / step) * step
    while value <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(value) < 1e-12 * step else value)
        if value + step == value:  # step under half an ulp: no later tick differs
            break
        value += step
    decimals = max(2, -math.floor(math.log10(step)))  # so labels one step apart differ
    return [(tick, _fmt(tick, decimals)) for tick in ticks]


def _limits(lo: float, hi: float) -> tuple[float, float]:
    # An empty range widens by 1, or by one ulp where adding 1 is lost.
    return (lo, hi) if hi > lo else (lo, max(lo + 1.0, math.nextafter(lo, math.inf)))


def _fmt(value: float, decimals: int) -> str:
    return f"{value:.{decimals}f}".rstrip("0").rstrip(".") or "0"


def _line(x1, y1, x2, y2, stroke: str = "black", width: int = 1) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" stroke-width="{width}"/>'


def _text(x, y, body: str, size: int, anchor: str | None = "middle", extra: str = "") -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
        f'font-size="{size}"{extra}>{body}</text>'
    )


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
    """Render one or more curves over a shared x axis as an SVG document.

    Each series has one label and as many values as ``x``. A count or length
    that does not match, or a value of ``x`` or of a series that is not
    finite, raises :class:`ValidationError` naming the axis or the label.
    """
    x = np.asarray(x, dtype=float)
    series = [np.asarray(s, dtype=float) for s in series]
    if len(series) != len(labels):
        raise ValidationError(f"{len(series)} series but {len(labels)} labels")
    for name, values in [("x", x), *((f"series {label!r}", s) for s, label in zip(series, labels))]:
        if values.shape != x.shape:
            raise ValidationError(f"{name} has {values.size} values but x has {x.size}")
        if (bad := first_bad(values)) is not None:
            raise ValidationError(f"{name} is not finite at index {bad[0]}: {values[bad]}")

    if log_y:
        floor = min((float(s[s > 0].min()) for s in series if np.any(s > 0)), default=1.0)
        floor /= 10.0
        series = [np.log10(np.maximum(s, floor)) for s in series]

    x_lo, x_hi = _limits(float(x.min()), float(x.max()))
    y_lo, y_hi = _limits(min(float(s.min()) for s in series), max(float(s.max()) for s in series))

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(v: float) -> float:
        return MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    axis_y = MARGIN_TOP + plot_h
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        _text(f"{WIDTH / 2:.1f}", 24, title, 16),
        _line(MARGIN_LEFT, axis_y, MARGIN_LEFT + plot_w, axis_y),
        _line(MARGIN_LEFT, MARGIN_TOP, MARGIN_LEFT, axis_y),
    ]
    for tick, label in _ticks(x_lo, x_hi):
        px = f"{sx(tick):.2f}"
        out += [_line(px, axis_y, px, axis_y + 5), _text(px, axis_y + 18, label, 11)]
    for tick, label in _ticks(y_lo, y_hi):
        py = sy(tick)
        out += [
            _line(MARGIN_LEFT - 5, f"{py:.2f}", MARGIN_LEFT, f"{py:.2f}"),
            _text(MARGIN_LEFT - 8, f"{py + 4:.2f}", f"1e{label}" if log_y else label, 11, "end"),
        ]

    mid_y = f"{MARGIN_TOP + plot_h / 2:.1f}"
    y_title = ("log10 " if log_y else "") + y_label
    out.append(_text(f"{MARGIN_LEFT + plot_w / 2:.1f}", HEIGHT - 12, x_label, 13))
    out.append(_text(18, mid_y, y_title, 13, extra=f' transform="rotate(-90 18 {mid_y})"'))

    for idx, (values, label) in enumerate(zip(series, labels)):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(x, values))
        out.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        lx, ly = MARGIN_LEFT + plot_w - 150, MARGIN_TOP + 8 + 16 * idx
        out += [_line(lx, ly, lx + 22, ly, color, 2), _text(lx + 28, ly + 4, label, 12, None)]

    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_line_plot(path, x, series, labels, **kwargs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_line_plot(x, series, labels, **kwargs))
