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
    if lo == hi:
        pad = 0.5 if lo == 0 else abs(lo) * 0.1
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _escape(text: str) -> str:
    """``text`` safe as XML character data; ``&`` goes first so no escape is escaped twice."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _series_color(series: Series, index: int) -> str:
    return PALETTE.get(series.label, FALLBACK_COLORS[index % len(FALLBACK_COLORS)])


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
        parts.append(
            f'<line x1="{_fmt(MARGIN_L)}" y1="{y}" x2="{_fmt(WIDTH - MARGIN_R)}" y2="{y}" '
            'stroke="#e4e4e4" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(MARGIN_L - 7)}" y="{y}" font-size="11" fill="#444444" '
            f'text-anchor="end" dominant-baseline="middle">{_label(t)}</text>'
        )
    for t in _ticks(x0, x1, target=8):
        x = _fmt(px(t))
        parts.append(
            f'<line x1="{x}" y1="{_fmt(MARGIN_T + plot_h)}" x2="{x}" '
            f'y2="{_fmt(MARGIN_T + plot_h + 5)}" stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x}" y="{_fmt(MARGIN_T + plot_h + 18)}" font-size="11" '
            f'fill="#444444" text-anchor="middle">{_label(t)}</text>'
        )

    # axes drawn after the grid so they stay visible
    parts.append(
        f'<line x1="{_fmt(MARGIN_L)}" y1="{_fmt(MARGIN_T)}" x2="{_fmt(MARGIN_L)}" '
        f'y2="{_fmt(MARGIN_T + plot_h)}" stroke="#000000" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_fmt(MARGIN_L)}" y1="{_fmt(MARGIN_T + plot_h)}" '
        f'x2="{_fmt(WIDTH - MARGIN_R)}" y2="{_fmt(MARGIN_T + plot_h)}" '
        'stroke="#000000" stroke-width="1"/>'
    )

    for i, s in enumerate(series):
        color = _series_color(s, i)
        if len(s.x) > 1:
            fwd = " ".join(f"{_fmt(px(x))},{_fmt(py(lo))}" for x, lo in zip(s.x, s.lo))
            back = " ".join(
                f"{_fmt(px(x))},{_fmt(py(hi))}" for x, hi in zip(reversed(s.x), reversed(s.hi))
            )
            parts.append(f'<polygon points="{fwd} {back}" fill="{color}" fill-opacity="0.15"/>')
    if baseline is not None:
        y = _fmt(py(baseline))
        parts.append(
            f'<line x1="{_fmt(MARGIN_L)}" y1="{y}" x2="{_fmt(WIDTH - MARGIN_R)}" y2="{y}" '
            'stroke="#333333" stroke-width="1.4" stroke-dasharray="6,4"/>'
        )
        parts.append(
            f'<text x="{_fmt(WIDTH - MARGIN_R - 4)}" y="{_fmt(py(baseline) - 5)}" '
            'font-size="11" fill="#333333" text-anchor="end">manual</text>'
        )
    for i, s in enumerate(series):
        color = _series_color(s, i)
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(s.x, s.mean))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )

    for i, s in enumerate(series):
        color = _series_color(s, i)
        lx = MARGIN_L + 12 + i * 72
        parts.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(MARGIN_T + 12)}" x2="{_fmt(lx + 22)}" '
            f'y2="{_fmt(MARGIN_T + 12)}" stroke="{color}" stroke-width="2.4"/>'
        )
        parts.append(
            f'<text x="{_fmt(lx + 27)}" y="{_fmt(MARGIN_T + 16)}" font-size="12" '
            f'fill="#111111">{_escape(s.label)}</text>'
        )

    parts.append(
        f'<text x="{_fmt(WIDTH / 2)}" y="20" font-size="14" fill="#111111" '
        f'text-anchor="middle">{title}</text>'
    )
    parts.append(
        f'<text x="{_fmt(MARGIN_L + plot_w / 2)}" y="{_fmt(HEIGHT - 10)}" font-size="12" '
        'fill="#111111" text-anchor="middle">episode</text>'
    )
    parts.append(
        f'<text x="16" y="{_fmt(MARGIN_T + plot_h / 2)}" font-size="12" fill="#111111" '
        f'text-anchor="middle" transform="rotate(-90 16 {_fmt(MARGIN_T + plot_h / 2)})">'
        f"{title}</text>"
    )
    parts.append("</svg>")
    write_atomic(path, ("\n".join(parts) + "\n").encode("utf-8"))
