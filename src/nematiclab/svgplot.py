"""Deterministic SVG line plots: fixed canvas, labelled axes, one polyline
per data column.  No plotting dependency; byte-identical output for
identical input, coordinates quantised to 1/100 px."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .reporting import TimeSeries

WIDTH, HEIGHT = 640.0, 480.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70.0, 20.0, 30.0, 50.0
PALETTE = ("#1f6fb2", "#d1495b", "#3a7d44", "#8d6a9f", "#c77b2f", "#4a4a4a")
N_TICKS = 5


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.6g}"


def _axis_range(lo: float, hi: float) -> tuple[float, float]:
    if lo == hi:
        pad = 0.5 if lo == 0.0 else abs(lo) * 0.5
        return lo - pad, hi + pad
    return lo, hi


def emit_plot(
    series: TimeSeries, path: Path, title: str = "", kind: str = "linear"
) -> None:
    """Write the plot; ``kind`` is ``linear`` or ``loglog``.  Rows with a
    non-finite coordinate are dropped (count recorded in the SVG desc)."""
    if len(series.rows) == 0:
        raise ValueError("empty series")
    if kind not in ("linear", "loglog"):
        raise ValueError(f"unknown plot kind {kind!r}")

    t_raw = series.rows[:, 0]
    ys_raw = series.rows[:, 1:]
    names = series.columns[1:]
    if ys_raw.shape[1] == 0:
        raise ValueError("series has no value columns")

    finite = np.isfinite(t_raw) & np.all(np.isfinite(ys_raw), axis=1)
    if kind == "loglog":
        finite &= (t_raw > 0) & np.all(ys_raw > 0, axis=1)
    dropped = int(np.sum(~finite))
    t = t_raw[finite]
    ys = ys_raw[finite]
    if len(t) == 0:
        raise ValueError("no plottable points")
    if kind == "loglog":
        t = np.log10(t)
        ys = np.log10(ys)

    x_lo, x_hi = _axis_range(float(np.min(t)), float(np.max(t)))
    y_lo, y_hi = _axis_range(float(np.min(ys)), float(np.max(ys)))

    def px(v):
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(v):
        return HEIGHT - MARGIN_B - (v - y_lo) / (y_hi - y_lo) * (
            HEIGHT - MARGIN_T - MARGIN_B
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH:.0f}" height="{HEIGHT:.0f}" '
        f'viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">',
        f"<desc>dropped={dropped};kind={kind}</desc>",
        f'<rect x="0" y="0" width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )

    # axes box and ticks
    x0, x1 = px(x_lo), px(x_hi)
    y0, y1 = py(y_lo), py(y_hi)
    parts.append(
        f'<rect x="{_fmt(x0)}" y="{_fmt(y1)}" width="{_fmt(x1 - x0)}" '
        f'height="{_fmt(y0 - y1)}" fill="none" stroke="#000000"/>'
    )
    for k in range(N_TICKS):
        frac = k / (N_TICKS - 1)
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        xp, yp = px(xv), py(yv)
        xlabel = _tick_label(10**xv if kind == "loglog" else xv)
        ylabel = _tick_label(10**yv if kind == "loglog" else yv)
        parts.append(
            f'<line x1="{_fmt(xp)}" y1="{_fmt(y0)}" x2="{_fmt(xp)}" '
            f'y2="{_fmt(y0 + 5)}" stroke="#000000"/>'
        )
        parts.append(
            f'<text x="{_fmt(xp)}" y="{_fmt(y0 + 18)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xlabel}</text>'
        )
        parts.append(
            f'<line x1="{_fmt(x0 - 5)}" y1="{_fmt(yp)}" x2="{_fmt(x0)}" '
            f'y2="{_fmt(yp)}" stroke="#000000"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 - 8)}" y="{_fmt(yp + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{ylabel}</text>'
        )
    parts.append(
        f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - 12:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{series.columns[0]}</text>'
    )

    # px and py take whole columns too, with the same operations per point
    xs = [_fmt(x) for x in px(t).tolist()]
    for j, name in enumerate(names):
        colour = PALETTE[j % len(PALETTE)]
        pts = " ".join(map("{},{:.2f}".format, xs, py(ys[:, j]).tolist()))
        parts.append(
            f'<polyline fill="none" stroke="{colour}" stroke-width="1.5" '
            f'points="{pts}"/>'
        )
        parts.append(
            f'<text x="{_fmt(x1 - 6)}" y="{_fmt(y1 + 14 + 14 * j)}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11" '
            f'fill="{colour}">{name}</text>'
        )

    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
