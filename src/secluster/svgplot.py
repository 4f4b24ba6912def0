"""Minimal deterministic SVG line charts.

Self-contained output: inline styling, no external fonts, no timestamps,
fixed-precision coordinates.  Rendering the same data twice gives
byte-identical files, which keeps the figure artifacts diffable.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_PANEL_WIDTH, _PANEL_HEIGHT = 460, 340
_TICK_TARGET = 5  # ticks per axis that `_nice_ticks` aims for


@dataclass(frozen=True)
class Series:
    label: str
    points: tuple[tuple[float, float], ...]


def _nice_ticks(lo: float, hi: float) -> list[float]:
    raw = (hi - lo) / _TICK_TARGET
    mag = 10.0 ** int(f"{raw:e}".split("e")[1])
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    ticks = []
    t = step * (int(lo / step) if lo >= 0 else int(lo / step) - 1)
    while t <= hi + 1e-9:
        tick = round(t, 10)  # which moves t by up to 5e-11, so tick is bounded
        if lo - 1e-9 <= tick <= hi + 1e-9:
            ticks.append(tick)
        t += step
    return ticks


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _fmt_tick(x: float) -> str:
    if x == int(x):
        return str(int(x))
    return f"{x:g}"


@dataclass(frozen=True)
class Panel:
    title: str
    x_label: str
    y_label: str
    series: tuple[Series, ...]


def _render_panel(panel: Panel, ox: float) -> list[str]:
    """The panel whose top left corner is (ox, 0)."""
    ml, mr, mt, mb = 56.0, 16.0, 30.0, 44.0
    px, py = ox + ml, mt
    pw, ph = _PANEL_WIDTH - ml - mr, _PANEL_HEIGHT - mt - mb

    xs = [p[0] for s in panel.series for p in s.points]
    ys = [p[1] for s in panel.series for p in s.points]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(min(ys), 0.0), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x: float) -> float:
        return px + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y: float) -> float:
        return py + ph - (y - y_lo) / (y_hi - y_lo) * ph

    out = []
    out.append(f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(pw)}" '
               f'height="{_fmt(ph)}" fill="#fafafa" stroke="#444" stroke-width="1"/>')
    out.append(f'<text x="{_fmt(px + pw / 2)}" y="18" '
               f'text-anchor="middle" font-size="13" font-weight="bold">{panel.title}</text>')

    for t in _nice_ticks(x_lo, x_hi):
        out.append(f'<line x1="{_fmt(sx(t))}" y1="{_fmt(py + ph)}" '
                   f'x2="{_fmt(sx(t))}" y2="{_fmt(py + ph + 4)}" stroke="#444"/>')
        out.append(f'<text x="{_fmt(sx(t))}" y="{_fmt(py + ph + 16)}" '
                   f'text-anchor="middle" font-size="10">{_fmt_tick(t)}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        out.append(f'<line x1="{_fmt(px - 4)}" y1="{_fmt(sy(t))}" '
                   f'x2="{_fmt(px)}" y2="{_fmt(sy(t))}" stroke="#444"/>')
        out.append(f'<text x="{_fmt(px - 7)}" y="{_fmt(sy(t) + 3)}" '
                   f'text-anchor="end" font-size="10">{_fmt_tick(t)}</text>')

    out.append(f'<text x="{_fmt(px + pw / 2)}" y="{_fmt(py + ph + 34)}" '
               f'text-anchor="middle" font-size="11">{panel.x_label}</text>')
    out.append(f'<text x="{_fmt(ox + 14)}" y="{_fmt(py + ph / 2)}" text-anchor="middle" '
               f'font-size="11" transform="rotate(-90 {_fmt(ox + 14)} {_fmt(py + ph / 2)})">'
               f'{panel.y_label}</text>')

    for idx, s in enumerate(panel.series):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in s.points)
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        for x, y in s.points:
            out.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="2" '
                       f'fill="{color}"/>')
        ly = py + 14 + 14 * idx
        out.append(f'<line x1="{_fmt(px + pw - 110)}" y1="{_fmt(ly - 3)}" '
                   f'x2="{_fmt(px + pw - 92)}" y2="{_fmt(ly - 3)}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_fmt(px + pw - 88)}" y="{_fmt(ly)}" '
                   f'font-size="10">{s.label}</text>')
    return out


def write_chart(panels: Sequence[Panel], path: Path | str) -> None:
    """Write one SVG containing the given panels side by side."""
    total_w = _PANEL_WIDTH * len(panels)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" '
        f'height="{_PANEL_HEIGHT}" viewBox="0 0 {total_w} {_PANEL_HEIGHT}" '
        f'font-family="Helvetica,Arial,sans-serif">',
        f'<rect x="0" y="0" width="{total_w}" height="{_PANEL_HEIGHT}" fill="#ffffff"/>',
    ]
    for i, panel in enumerate(panels):
        parts.extend(_render_panel(panel, i * _PANEL_WIDTH))
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
