"""Minimal deterministic SVG line charts for study outputs.

No plotting dependency: charts are simple polylines on a log10 y axis
with tick labels, emitted as text so identical inputs produce identical
files.
"""

from __future__ import annotations

import math

_WIDTH = 640
_HEIGHT = 420
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 40
_MARGIN_B = 50
_COLORS = ("#1f6fb2", "#c0392b", "#27824d", "#8e44ad", "#b8860b", "#444444")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def line_plot_svg(
    series: list[tuple[str, list[float], list[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Render named (x, y) series as one SVG document string.

    The y axis is logarithmic: points with y <= 0 are left out, and the
    y tick labels read ``1e<exponent>``.
    """
    # only y <= 0 is left out; a NaN y stays in the series
    logged = [
        (name, [(float(x), math.log10(float(y))) for x, y in zip(xs, ys) if not y <= 0])
        for name, xs, ys in series
    ]
    points = [p for _, pts in logged for p in pts]
    if not points:
        points = [(0.0, 0.0), (1.0, 1.0)]
    x_lo = min(p[0] for p in points)
    x_hi = max(p[0] for p in points)
    y_lo = min(p[1] for p in points)
    y_hi = max(p[1] for p in points)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_T + plot_h}" x2="{x:.1f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle">{_fmt(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{y:.1f}" x2="{_MARGIN_L}" y2="{y:.1f}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.1f}" text-anchor="end">1e{_fmt(t)}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})">{ylabel}</text>'
    )
    for idx, (name, pts) in enumerate(logged):
        color = _COLORS[idx % len(_COLORS)]
        coords = [f"{px(x):.2f},{py(y):.2f}" for x, y in pts]
        if not coords:
            continue
        parts.append(
            f'<polyline points="{" ".join(coords)}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for c in coords:
            cx, cy = c.split(",")
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
        parts.append(
            f'<text x="{_WIDTH - _MARGIN_R - 6}" y="{_MARGIN_T + 16 + 16 * idx}" '
            f'text-anchor="end" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
