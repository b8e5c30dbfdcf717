"""Minimal SVG charts (polylines, axes, histogram rects), no plotting deps.

Diagnostic output only: layout is fixed-size, colors cycle through a small
palette, and nothing here is part of a numeric contract.
"""
from __future__ import annotations

from pathlib import Path
from typing import Sequence

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b", "#17becf"]

_WIDTH = 860
_HEIGHT = 520
_MARGIN = {"left": 70, "right": 190, "top": 50, "bottom": 60}


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _open_svg(title: str) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="28" text-anchor="middle" font-size="18" '
        f'font-family="Helvetica,Arial,sans-serif">{_escape(title)}</text>',
    ]
    return parts


def _axes(parts: list[str], x_label: str, y_label: str) -> tuple[float, float, float, float]:
    left, right = _MARGIN["left"], _WIDTH - _MARGIN["right"]
    top, bottom = _MARGIN["top"], _HEIGHT - _MARGIN["bottom"]
    parts.append(
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="#000" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="#000" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{(left + right) / 2:.1f}" y="{_HEIGHT - 16}" text-anchor="middle" '
        f'font-size="13" font-family="Helvetica,Arial,sans-serif">{_escape(x_label)}</text>'
    )
    mid_y = (top + bottom) / 2
    parts.append(
        f'<text x="20" y="{mid_y:.1f}" text-anchor="middle" font-size="13" '
        f'font-family="Helvetica,Arial,sans-serif" transform="rotate(-90 20 {mid_y:.1f})">'
        f"{_escape(y_label)}</text>"
    )
    return left, right, top, bottom


def _share(v: float, lo: float, hi: float) -> float:
    """Where v lies from lo to hi, or mid-way when the floats cannot tell them
    apart (one value too large for the unit or 5% padding to move it)."""
    return (v - lo) / (hi - lo) if hi > lo else 0.5


def line_chart(
    path: str | Path,
    title: str,
    x_label: str,
    y_label: str,
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    y_range: tuple[float, float] | None = None,
) -> None:
    """Multi-series line chart; each series is (label, xs, ys). NaNs break lines.

    With a ``y_range``, series whose ys are all NaN still get axes and a legend.
    """
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if y == y]
    if not xs_all or (not ys_all and y_range is None):
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    if y_range is None:
        y_lo, y_hi = min(ys_all), max(ys_all)
        pad = 0.05 * (y_hi - y_lo or 1.0)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    else:
        y_lo, y_hi = y_range
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    parts = _open_svg(title)
    left, right, top, bottom = _axes(parts, x_label, y_label)

    def px(x: float) -> float:
        return left + _share(x, x_lo, x_hi) * (right - left)

    def py(y: float) -> float:
        return bottom - _share(y, y_lo, y_hi) * (bottom - top)

    for i in range(5):
        yv = y_lo + (y_hi - y_lo) * i / 4
        parts.append(
            f'<line x1="{left}" y1="{_fmt(py(yv))}" x2="{right}" y2="{_fmt(py(yv))}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{_fmt(py(yv) + 4)}" text-anchor="end" font-size="11" '
            f'font-family="Helvetica,Arial,sans-serif">{yv:.3g}</text>'
        )
    for i in range(5):
        xv = x_lo + (x_hi - x_lo) * i / 4
        parts.append(
            f'<text x="{_fmt(px(xv))}" y="{bottom + 18}" text-anchor="middle" font-size="11" '
            f'font-family="Helvetica,Arial,sans-serif">{xv:.3g}</text>'
        )

    legend_y = top + 10
    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        segment: list[str] = []
        for x, y in zip(xs, ys):
            if y != y:  # NaN splits the polyline
                if len(segment) > 1:
                    parts.append(
                        f'<polyline fill="none" stroke="{color}" stroke-width="2" '
                        f'points="{" ".join(segment)}"/>'
                    )
                segment = []
                continue
            segment.append(f"{_fmt(px(x))},{_fmt(py(y))}")
        if len(segment) > 1:
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="2" '
                f'points="{" ".join(segment)}"/>'
            )
        elif len(segment) == 1:
            cx, cy = segment[0].split(",")
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="{color}"/>')
        lx = right + 14
        parts.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="3"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{legend_y + 4}" font-size="12" '
            f'font-family="Helvetica,Arial,sans-serif">{_escape(label)}</text>'
        )
        legend_y += 20

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def paired_histogram(
    path: str | Path,
    title: str,
    x_label: str,
    bin_edges: Sequence[float],
    counts_a: Sequence[int],
    counts_b: Sequence[int],
    label_a: str,
    label_b: str,
) -> None:
    """Two interleaved bar sets over shared bins (e.g. clean vs wrong counts)."""
    bins = len(bin_edges) - 1
    if len(counts_a) != bins or len(counts_b) != bins:
        raise ValueError("counts must match the number of bins")
    top_count = max(max(counts_a, default=0), max(counts_b, default=0), 1)

    parts = _open_svg(title)
    left, right, top, bottom = _axes(parts, x_label, "count")
    bin_w = (right - left) / bins
    bar_w = bin_w * 0.42

    def bar_height(c: int) -> float:
        return (bottom - top) * c / top_count

    for i in range(bins):
        x0 = left + i * bin_w
        ha, hb = bar_height(counts_a[i]), bar_height(counts_b[i])
        parts.append(
            f'<rect x="{_fmt(x0 + 0.05 * bin_w)}" y="{_fmt(bottom - ha)}" '
            f'width="{_fmt(bar_w)}" height="{_fmt(ha)}" fill="{PALETTE[0]}" fill-opacity="0.8"/>'
        )
        parts.append(
            f'<rect x="{_fmt(x0 + 0.53 * bin_w)}" y="{_fmt(bottom - hb)}" '
            f'width="{_fmt(bar_w)}" height="{_fmt(hb)}" fill="{PALETTE[1]}" fill-opacity="0.8"/>'
        )
    for i in range(0, bins + 1, max(1, bins // 5)):
        xv = left + i * bin_w
        parts.append(
            f'<text x="{_fmt(xv)}" y="{bottom + 18}" text-anchor="middle" font-size="11" '
            f'font-family="Helvetica,Arial,sans-serif">{bin_edges[i]:.2f}</text>'
        )
    for idx, label in enumerate((label_a, label_b)):
        lx, ly = right + 14, top + 10 + idx * 20
        parts.append(
            f'<rect x="{lx}" y="{ly - 9}" width="14" height="12" fill="{PALETTE[idx]}" '
            f'fill-opacity="0.8"/>'
        )
        parts.append(
            f'<text x="{lx + 20}" y="{ly + 2}" font-size="12" '
            f'font-family="Helvetica,Arial,sans-serif">{_escape(label)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
