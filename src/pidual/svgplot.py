"""Minimal SVG charts (polylines, axes, histogram rects), no plotting deps.

Diagnostic output only: layout is fixed-size, colors cycle through a small
palette, and nothing here is part of a numeric contract. Each chart builds
only its body; ``_write`` adds the frame every chart shares (background,
title, axes and axis labels) and writes the file, and each kind of element
is written by one helper or at one site.
"""
from __future__ import annotations

from pathlib import Path
from typing import Sequence

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b", "#17becf"]

_WIDTH = 860
_HEIGHT = 520
# the plot's edges, and the x where the legend starts to the right of it
_LEFT, _RIGHT, _TOP, _BOTTOM = 70, _WIDTH - 190, 50, _HEIGHT - 60
_LEGEND_X = _RIGHT + 14


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _text(x, y, text: str, size: int, anchor: str = "", transform: str = "") -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    for raw, entity in (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;")):
        text = text.replace(raw, entity)
    return (
        f'<text x="{x}" y="{y}"{anchor} font-size="{size}" '
        f'font-family="Helvetica,Arial,sans-serif"{transform}>{text}</text>'
    )


def _line(x1, y1, x2, y2, stroke: str, width) -> str:
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" '
        f'stroke-width="{width}"/>'
    )


def _bar(x, y, width, height, color: str) -> str:
    return (
        f'<rect x="{x}" y="{y}" width="{width}" height="{height}" fill="{color}" '
        f'fill-opacity="0.8"/>'
    )


def _write(path: str | Path, title: str, x_label: str, y_label: str, body: list[str]) -> None:
    """Write one chart: the shared frame around ``body``."""
    mid_y = f"{(_TOP + _BOTTOM) / 2:.1f}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
        _text(f"{_WIDTH / 2:.1f}", 28, title, 18, "middle"),
        _line(_LEFT, _BOTTOM, _RIGHT, _BOTTOM, "#000", 1.5),
        _line(_LEFT, _TOP, _LEFT, _BOTTOM, "#000", 1.5),
        _text(f"{(_LEFT + _RIGHT) / 2:.1f}", _HEIGHT - 16, x_label, 13, "middle"),
        _text(20, mid_y, y_label, 13, "middle", f"rotate(-90 20 {mid_y})"),
        *body,
        "</svg>",
    ]
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


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
    """Multi-series line chart; each series is (label, xs, ys).

    NaNs split a series into runs: a run of two or more points is a polyline,
    and a lone point is a dot wherever it falls. With a ``y_range``, series
    whose ys are all NaN still get axes and a legend.
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

    def px(x: float) -> float:
        return _LEFT + _share(x, x_lo, x_hi) * (_RIGHT - _LEFT)

    def py(y: float) -> float:
        return _BOTTOM - _share(y, y_lo, y_hi) * (_BOTTOM - _TOP)

    body: list[str] = []
    for i in range(5):
        yv = y_lo + (y_hi - y_lo) * i / 4
        body.append(_line(_LEFT, _fmt(py(yv)), _RIGHT, _fmt(py(yv)), "#dddddd", 1))
        body.append(_text(_LEFT - 8, _fmt(py(yv) + 4), f"{yv:.3g}", 11, "end"))
    for i in range(5):
        xv = x_lo + (x_hi - x_lo) * i / 4
        body.append(_text(_fmt(px(xv)), _BOTTOM + 18, f"{xv:.3g}", 11, "middle"))

    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        runs: list[list[str]] = [[]]
        for x, y in zip(xs, ys):
            if y != y:  # NaN ends the run
                runs.append([])
            else:
                runs[-1].append(f"{_fmt(px(x))},{_fmt(py(y))}")
        for run in runs:
            if len(run) > 1:
                body.append(
                    f'<polyline fill="none" stroke="{color}" stroke-width="2" '
                    f'points="{" ".join(run)}"/>'
                )
            elif run:
                cx, cy = run[0].split(",")
                body.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="{color}"/>')
        legend_y = _TOP + 10 + 20 * idx
        body.append(_line(_LEGEND_X, legend_y, _LEGEND_X + 22, legend_y, color, 3))
        body.append(_text(_LEGEND_X + 28, legend_y + 4, label, 12))
    _write(path, title, x_label, y_label, body)


def paired_histogram(
    path: str | Path,
    title: str,
    x_label: str,
    bin_edges: Sequence[float],
    clean_counts: Sequence[int],
    wrong_counts: Sequence[int],
) -> None:
    """Clean and wrong label counts as two interleaved bar sets over shared bins."""
    bins = len(bin_edges) - 1
    if len(clean_counts) != bins or len(wrong_counts) != bins:
        raise ValueError("counts must match the number of bins")
    top_count = max(max(clean_counts, default=0), max(wrong_counts, default=0), 1)
    bin_w = (_RIGHT - _LEFT) / bins
    sets = ((0.05, clean_counts, PALETTE[0]), (0.53, wrong_counts, PALETTE[1]))

    body: list[str] = []
    for i in range(bins):
        x0 = _LEFT + i * bin_w
        for offset, counts, color in sets:
            h = (_BOTTOM - _TOP) * counts[i] / top_count
            x = _fmt(x0 + offset * bin_w)
            body.append(_bar(x, _fmt(_BOTTOM - h), _fmt(bin_w * 0.42), _fmt(h), color))
    for i in range(0, bins + 1, max(1, bins // 5)):
        tick = f"{bin_edges[i]:.2f}"
        body.append(_text(_fmt(_LEFT + i * bin_w), _BOTTOM + 18, tick, 11, "middle"))
    for idx, label in enumerate(("clean labels", "wrong labels")):
        ly = _TOP + 10 + idx * 20
        body.append(_bar(_LEGEND_X, ly - 9, 14, 12, PALETTE[idx]))
        body.append(_text(_LEGEND_X + 20, ly + 2, label, 12))
    _write(path, title, x_label, "count", body)
