"""Minimal self-contained SVG charts (no plotting dependency).

Output is deterministic for identical inputs: fixed canvas, fixed tick
logic, fixed float formatting. Metadata is embedded as XML comments.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

WIDTH = 720
HEIGHT = 480
MARGIN_LEFT = 80
MARGIN_RIGHT = 24
MARGIN_TOP = 56
MARGIN_BOTTOM = 72

_PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
_PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM


def _escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` escaped for XML, in the order
    ``xml.sax.saxutils.escape`` replaces them. That module is not imported:
    it pulls ``urllib.request``, ``http.client``, ``email``, ``ssl`` and
    ``socket`` into every process that draws a chart or imports the CLI."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(value: float) -> str:
    text = f"{value:.6g}"
    return "0" if text == "-0" else text


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw_step = (hi - lo) / target
    power = 10.0 ** math.floor(math.log10(raw_step))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * power
        if raw_step <= step:
            break
    if max(abs(lo), abs(hi)) > 1e12 * step:
        # Multiples of step are not distinct floats this close to the values:
        # tick evenly instead. hi - lo is exact here, so ticks stay in range.
        return sorted({lo + (hi - lo) * (i / target) for i in range(target + 1)})
    # Index the multiples of step and round them to step's last decimal.
    first = math.ceil(lo / step)
    last = math.floor(hi / step + 1e-9)
    decimals = max(12, 1 - math.floor(math.log10(step)))
    return [round(i * step, decimals) for i in range(first, last + 1)]


def _header(title: str, meta: Mapping[str, str] | None) -> list[str]:
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
    ]
    for key, value in (meta or {}).items():
        lines.append(f"<!-- {_escape(str(key))}={_escape(str(value))} -->")
    lines.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    lines.append(
        f'<text x="{WIDTH / 2:g}" y="30" text-anchor="middle" '
        f'font-family="sans-serif" font-size="18">{_escape(title)}</text>'
    )
    return lines


def _axes(lines: list[str], x_label: str, y_label: str) -> None:
    x0, y0 = MARGIN_LEFT, HEIGHT - MARGIN_BOTTOM
    x1, y1 = WIDTH - MARGIN_RIGHT, MARGIN_TOP
    lines.append(
        f'<path d="M {x0} {y1} L {x0} {y0} L {x1} {y0}" fill="none" '
        'stroke="black" stroke-width="1.5"/>'
    )
    lines.append(
        f'<text x="{(x0 + x1) / 2:g}" y="{HEIGHT - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_escape(x_label)}</text>'
    )
    lines.append(
        f'<text x="22" y="{(y0 + y1) / 2:g}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 22 {(y0 + y1) / 2:g})">{_escape(y_label)}</text>'
    )


def _y_grid(lines: list[str], lo: float, hi: float) -> Callable[[float], float]:
    """Draw grid lines with y-tick labels for the range [lo, hi]; return
    the map from a value in that range to its pixel row."""

    def sy(v: float) -> float:
        return HEIGHT - MARGIN_BOTTOM - (v - lo) / (hi - lo) * _PLOT_H

    ticks = _nice_ticks(lo, hi)
    labels = [_fmt(tick) for tick in ticks]
    if len(set(labels)) < len(labels):  # a range too narrow for 6 digits
        labels = [repr(tick) for tick in ticks]
    for tick, label in zip(ticks, labels):
        y = sy(tick)
        lines.append(
            f'<line x1="{MARGIN_LEFT}" y1="{y:.2f}" x2="{WIDTH - MARGIN_RIGHT}" '
            f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{label}</text>'
        )
    return sy


def _y_scale(values: Sequence[float]) -> tuple[float, float]:
    lo = min(values)
    hi = max(values)
    if hi == lo:
        pad = abs(hi) * 0.1 or 0.5
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.08
    return lo - pad, hi + pad


def line_chart(
    xs: Sequence[float],
    ys: Sequence[float],
    title: str,
    x_label: str,
    y_label: str,
    meta: Mapping[str, str] | None = None,
) -> str:
    """Single-series line chart."""
    if len(xs) != len(ys) or not xs:
        raise ValueError("line_chart needs equal-length non-empty series")
    y_lo, y_hi = _y_scale(ys)
    x_lo, x_hi = (min(xs), max(xs)) if min(xs) != max(xs) else (min(xs) - 0.5, max(xs) + 0.5)

    def sx(v: float) -> float:
        return MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * _PLOT_W

    lines = _header(title, meta)
    sy = _y_grid(lines, y_lo, y_hi)
    for tick in _nice_ticks(x_lo, x_hi):
        x = sx(tick)
        lines.append(
            f'<text x="{x:.2f}" y="{HEIGHT - MARGIN_BOTTOM + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_fmt(tick)}</text>'
        )
    points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    lines.append(
        f'<polyline points="{points}" fill="none" stroke="#1f77b4" stroke-width="2"/>'
    )
    _axes(lines, x_label, y_label)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    title: str,
    y_label: str,
    meta: Mapping[str, str] | None = None,
) -> str:
    """Labeled bar chart with value captions."""
    if len(labels) != len(values) or not labels:
        raise ValueError("bar_chart needs equal-length non-empty labels/values")
    y_lo = min(0.0, min(values))
    y_hi = max(values)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    y_hi *= 1.08

    lines = _header(title, meta)
    sy = _y_grid(lines, y_lo, y_hi)
    n = len(labels)
    slot = _PLOT_W / n
    bar_w = slot * 0.64
    for i, (label, value) in enumerate(zip(labels, values)):
        x = MARGIN_LEFT + i * slot + (slot - bar_w) / 2
        top = sy(value)
        base = sy(0.0)
        height = abs(base - top)
        lines.append(
            f'<rect x="{x:.2f}" y="{min(top, base):.2f}" width="{bar_w:.2f}" '
            f'height="{height:.2f}" fill="#1f77b4"/>'
        )
        lines.append(
            f'<text x="{x + bar_w / 2:.2f}" y="{top - 6:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(value)}</text>'
        )
        lines.append(
            f'<text x="{x + bar_w / 2:.2f}" y="{HEIGHT - MARGIN_BOTTOM + 20}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">'
            f"{_escape(label)}</text>"
        )
    _axes(lines, "", y_label)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
