"""Static SVG line charts: per-series mean lines, min-max bands, baseline.

Pure string assembly with fixed number formatting, so identical inputs
produce byte-identical files.
"""

import math
from dataclasses import dataclass

from .metrics import write_atomic

WIDTH, HEIGHT = 720, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 18, 34, 48

PALETTE = {"eg": "#25599e", "vb": "#c2187a", "me": "#2d8a43"}
FALLBACK_COLORS = ("#e58a1a", "#6a4fb3", "#b03a2e", "#148f8f")


@dataclass
class Series:
    """One plotted line: x positions, mean values and the min/max band around them."""

    label: str
    x: list
    mean: list
    lo: list
    hi: list


def _nice_step(span: float, target: int) -> float:
    raw = span / max(target, 1)
    mag = 10.0 ** _floor_log10(raw)
    for mult in (1.0, 2.0, 5.0, 10.0):
        if mult * mag >= raw:
            return mult * mag
    return 10.0 * mag


def _floor_log10(v: float) -> int:
    return math.floor(math.log10(v)) if v > 0 else 0


def _ticks(lo: float, hi: float, target: int = 5) -> list:
    if hi <= lo:
        return [lo]
    step = _nice_step(hi - lo, target)
    first = step * round(lo / step)
    if first < lo - 1e-9 * step:
        first += step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 else t)
        if t + step == t:  # a step below half the float spacing at t never moves it
            break
        t += step
    return ticks


def _fmt(v: float) -> str:
    return format(v, ".2f")


def _label(v: float) -> str:
    return format(v, ".6g")


def _data_range(values, fallback) -> tuple:
    if not values:
        return fallback
    lo, hi = min(values), max(values)
    # a range within rounding of one value is drawn as that one value
    if hi - lo <= 1e-9 * max(abs(lo), abs(hi)):
        pad = 0.5 if lo == 0 else abs(lo) * 0.1
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _escape(text: str) -> str:
    """``text`` safe as XML character data; ``&`` goes first so no escape is escaped twice."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _line(x1, y1, x2, y2, stroke, width, extra="") -> str:
    """One ``<line>``; coordinates come formatted, ``extra`` holds further attributes."""
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" '
            f'stroke-width="{width}"{extra}/>')


def _text(x, y, size, fill, body, extra="") -> str:
    """One ``<text>``; coordinates come formatted and ``body`` escaped."""
    return f'<text x="{x}" y="{y}" font-size="{size}" fill="{fill}"{extra}>{body}</text>'


def emit_linechart(series, path, title: str, baseline: float | None = None) -> None:
    """Write the chart as a standalone SVG file: x is the episode, y is ``title``.

    ``baseline``, when given, is drawn as a dashed line labelled "manual".
    """
    title = _escape(title)
    xs, ys = [], []
    for s in series:
        xs.extend(s.x)
        ys.extend(s.mean)
        ys.extend(s.lo)
        ys.extend(s.hi)
    if baseline is not None:
        ys.append(baseline)
    x0, x1 = _data_range(xs, (0.0, 1.0))
    y0, y1 = _data_range(ys, (0.0, 1.0))

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    left, right = _fmt(MARGIN_L), _fmt(WIDTH - MARGIN_R)
    top, bottom = _fmt(MARGIN_T), _fmt(MARGIN_T + plot_h)
    colors = [PALETTE.get(s.label, FALLBACK_COLORS[i % len(FALLBACK_COLORS)])
              for i, s in enumerate(series)]

    def px(x):
        return MARGIN_L + (x - x0) / (x1 - x0) * plot_w

    def py(y):
        return MARGIN_T + plot_h - (y - y0) / (y1 - y0) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]

    for t in _ticks(y0, y1):
        y = _fmt(py(t))
        parts.append(_line(left, y, right, y, "#e4e4e4", 1))
        parts.append(_text(_fmt(MARGIN_L - 7), y, 11, "#444444", _label(t),
                           ' text-anchor="end" dominant-baseline="middle"'))
    for t in _ticks(x0, x1, target=8):
        x = _fmt(px(t))
        parts.append(_line(x, bottom, x, _fmt(MARGIN_T + plot_h + 5), "#444444", 1))
        parts.append(_text(x, _fmt(MARGIN_T + plot_h + 18), 11, "#444444", _label(t),
                           ' text-anchor="middle"'))

    # axes drawn after the grid so they stay visible
    parts.append(_line(left, top, left, bottom, "#000000", 1))
    parts.append(_line(left, bottom, right, bottom, "#000000", 1))

    for s, color in zip(series, colors):
        if len(s.x) > 1:
            fwd = " ".join(f"{_fmt(px(x))},{_fmt(py(lo))}" for x, lo in zip(s.x, s.lo))
            back = " ".join(
                f"{_fmt(px(x))},{_fmt(py(hi))}" for x, hi in zip(reversed(s.x), reversed(s.hi))
            )
            parts.append(f'<polygon points="{fwd} {back}" fill="{color}" fill-opacity="0.15"/>')
    if baseline is not None:
        y = _fmt(py(baseline))
        parts.append(_line(left, y, right, y, "#333333", 1.4, ' stroke-dasharray="6,4"'))
        parts.append(_text(_fmt(WIDTH - MARGIN_R - 4), _fmt(py(baseline) - 5), 11, "#333333",
                           "manual", ' text-anchor="end"'))
    for s, color in zip(series, colors):
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(s.x, s.mean))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>')

    legend_y = _fmt(MARGIN_T + 12)
    for i, (s, color) in enumerate(zip(series, colors)):
        lx = MARGIN_L + 12 + i * 72
        parts.append(_line(_fmt(lx), legend_y, _fmt(lx + 22), legend_y, color, 2.4))
        parts.append(_text(_fmt(lx + 27), _fmt(MARGIN_T + 16), 12, "#111111", _escape(s.label)))

    mid_y = _fmt(MARGIN_T + plot_h / 2)
    parts.append(_text(_fmt(WIDTH / 2), "20", 14, "#111111", title, ' text-anchor="middle"'))
    parts.append(_text(_fmt(MARGIN_L + plot_w / 2), _fmt(HEIGHT - 10), 12, "#111111",
                       "episode", ' text-anchor="middle"'))
    parts.append(_text("16", mid_y, 12, "#111111", title,
                       f' text-anchor="middle" transform="rotate(-90 16 {mid_y})"'))
    parts.append("</svg>")
    write_atomic(path, ("\n".join(parts) + "\n").encode("utf-8"))
