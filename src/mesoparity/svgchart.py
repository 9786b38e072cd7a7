"""Tiny deterministic SVG line charts.

Wide plotting stacks are overkill for one figure, and none of them promise
byte-stable output.  This renders a multi-series polyline chart with axes,
ticks, and a legend, with every coordinate formatted to two decimals so
identical data always yields identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def escape(text: str) -> str:
    """Escape '&', '>' and '<' in that order, as ``xml.sax.saxutils.escape``
    does, without importing it (it pulls in ``urllib`` and ``email``)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


@dataclass(frozen=True)
class Series:
    label: str
    xs: tuple
    ys: tuple

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or not self.xs:
            raise ValueError("series needs matching, non-empty x/y data")


def _ticks(lo: float, hi: float, count: int = 5):
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def polyline_chart(series, x_label: str, y_label: str, title: str, y_range) -> str:
    """Render series (iterable of Series) to a self-contained SVG string,
    with y_range = (y_lo, y_hi) as the y-axis span."""
    series = list(series)
    if not series:
        raise ValueError("nothing to plot")
    width, height = 640, 420
    ml, mr, mt, mb = 72, 150, 34, 56
    x_all = [x for s in series for x in s.xs]
    x_lo, x_hi = float(min(x_all)), float(max(x_all))
    y_lo, y_hi = map(float, y_range)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    plot_w = width - ml - mr
    plot_h = height - mt - mb

    def px(x):
        return ml + (float(x) - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return mt + plot_h - (float(y) - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    out.append(
        f'<text x="{_fmt(ml + plot_w / 2)}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(title)}</text>'
    )
    axis_style = 'stroke="black" stroke-width="1"'
    out.append(f'<line x1="{_fmt(ml)}" y1="{_fmt(mt + plot_h)}" '
               f'x2="{_fmt(ml + plot_w)}" y2="{_fmt(mt + plot_h)}" {axis_style}/>')
    out.append(f'<line x1="{_fmt(ml)}" y1="{_fmt(mt)}" '
               f'x2="{_fmt(ml)}" y2="{_fmt(mt + plot_h)}" {axis_style}/>')
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        out.append(f'<line x1="{_fmt(x)}" y1="{_fmt(mt + plot_h)}" '
                   f'x2="{_fmt(x)}" y2="{_fmt(mt + plot_h + 5)}" {axis_style}/>')
        out.append(f'<text x="{_fmt(x)}" y="{_fmt(mt + plot_h + 20)}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{escape(f"{t:.4g}")}</text>')
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        out.append(f'<line x1="{_fmt(ml - 5)}" y1="{_fmt(y)}" '
                   f'x2="{_fmt(ml)}" y2="{_fmt(y)}" {axis_style}/>')
        out.append(f'<text x="{_fmt(ml - 9)}" y="{_fmt(y + 4)}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{escape(f"{t:.4g}")}</text>')
    out.append(f'<text x="{_fmt(ml + plot_w / 2)}" y="{_fmt(height - 12)}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="12">'
               f"{escape(x_label)}</text>")
    cx, cy = 18, mt + plot_h / 2
    out.append(f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 {_fmt(cx)} {_fmt(cy)})">{escape(y_label)}</text>')
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(s.xs, s.ys))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                   f'points="{pts}"/>')
        ly = mt + 14 + 18 * i
        lx = ml + plot_w + 12
        out.append(f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 22)}" '
                   f'y2="{_fmt(ly - 4)}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{_fmt(lx + 28)}" y="{_fmt(ly)}" font-family="sans-serif" '
                   f'font-size="11">{escape(s.label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
