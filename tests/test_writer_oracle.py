"""The CSV and SVG writers format and write a series in blocks of
``reporting.BLOCK_ROWS`` rows, against the writers that formatted the whole
series in one piece.

The reference below is that whole-series form: one ``tolist()`` of the rows,
one list of every line, one joined text, one ``Path.write_text``.  Every
file must agree byte for byte at row counts around the block size and with
values whose shortest ``repr`` is unusual, and the streamed writers' traced
peak must not grow with the series as the reference's does.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nematiclab import svgplot
from nematiclab.reporting import BLOCK_ROWS, TimeSeries, write_csv
from nematiclab.svgplot import (
    HEIGHT,
    MARGIN_B,
    MARGIN_L,
    MARGIN_R,
    MARGIN_T,
    N_TICKS,
    PALETTE,
    WIDTH,
    emit_plot,
)


def reference_csv(series: TimeSeries, path: Path) -> None:
    lines = [",".join(series.columns)]
    lines += [",".join(map(repr, row)) for row in series.rows.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_plot(
    series: TimeSeries, path: Path, title: str = "", kind: str = "linear"
) -> None:
    _fmt, _tick_label, _axis_range = svgplot._fmt, svgplot._tick_label, svgplot._axis_range
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


ROW_COUNTS = [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 26_001]
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308]
COLUMNS = ("t", "a", "b", "c", "d", "e")


def series_of(n_rows: int, seed: int = 0, special: bool = True) -> TimeSeries:
    """n_rows rows of six columns: time from -0.0 up, values over 40
    decades of both signs, and the special values scattered among them
    (nan and +-inf make the plots drop their rows)."""
    rng = np.random.default_rng(seed)
    t = np.concatenate([[-0.0, 5e-324], 1e-3 * np.arange(1, n_rows - 1)])[:n_rows]
    values = rng.standard_normal((n_rows, 5)) * 10.0 ** rng.integers(-20, 20, (n_rows, 5))
    if special and n_rows:
        for k, v in enumerate(SPECIAL):
            values[rng.integers(n_rows), k % 5] = v
    return TimeSeries(COLUMNS, np.column_stack([t, values]))


def loglog_series(n_rows: int, seed: int = 0) -> TimeSeries:
    """Positive rows over many decades, with zeros, negatives and a nan
    that a loglog plot drops."""
    rng = np.random.default_rng(seed)
    t = np.logspace(-3, 3, n_rows)
    values = 10.0 ** rng.uniform(-30, 30, (n_rows, 3))
    for k, v in enumerate([0.0, -1.0, np.nan, -0.0, 5e-324, 1e308]):
        values[rng.integers(n_rows), k % 3] = v
    return TimeSeries(("x", "p", "q", "r"), np.column_stack([t, values]))


@pytest.mark.parametrize("n_rows", ROW_COUNTS)
def test_csv_matches_the_whole_series_writer(tmp_path, n_rows):
    series = series_of(n_rows)
    write_csv(series, tmp_path / "block.csv")
    reference_csv(series, tmp_path / "whole.csv")
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.parametrize("n_rows", [n for n in ROW_COUNTS if n])
def test_linear_plot_matches_the_whole_series_writer(tmp_path, n_rows):
    # a one-row series keeps its row; a longer one drops its special rows,
    # a row in the first block, the first of the second and the last
    series = series_of(n_rows, special=n_rows > 1)
    rows = series.rows.copy()
    for i in {0, BLOCK_ROWS, n_rows - 1}:
        if 1 < n_rows and i < n_rows:
            rows[i, 1] = np.nan
    series = TimeSeries(series.columns, rows)
    emit_plot(series, tmp_path / "block.svg", title="t: x", kind="linear")
    reference_plot(series, tmp_path / "whole.svg", title="t: x", kind="linear")
    assert (tmp_path / "block.svg").read_bytes() == (tmp_path / "whole.svg").read_bytes()


@pytest.mark.parametrize("n_rows", [n for n in ROW_COUNTS if n > 6])
def test_loglog_plot_matches_the_whole_series_writer(tmp_path, n_rows):
    series = loglog_series(n_rows)
    emit_plot(series, tmp_path / "block.svg", kind="loglog")
    reference_plot(series, tmp_path / "whole.svg", kind="loglog")
    block = (tmp_path / "block.svg").read_bytes()
    assert block == (tmp_path / "whole.svg").read_bytes()
    assert b"dropped=0;" not in block


def test_a_plot_with_special_values_matches_the_whole_series_writer(tmp_path):
    # huge values overflow the pixel transform; the point text is whatever
    # the whole-series writer made of them
    rows = np.array([[0.0, 1e308], [1.0, -1e308], [2.0, 5e-324], [3.0, -0.0]])
    series = TimeSeries(("t", "y"), rows)
    with np.errstate(over="ignore", invalid="ignore"):
        emit_plot(series, tmp_path / "block.svg")
        reference_plot(series, tmp_path / "whole.svg")
    assert (tmp_path / "block.svg").read_bytes() == (tmp_path / "whole.svg").read_bytes()


@pytest.mark.parametrize(
    "series, kind, match",
    [
        (TimeSeries(COLUMNS, np.zeros((0, 6))), "linear", "empty series"),
        (series_of(3, special=False), "semilog", "unknown plot kind"),
        (TimeSeries(("t",), [[0.0], [1.0], [2.0]]), "linear", "no value"),
        (TimeSeries(("t", "y"), [[0.0, np.nan], [1.0, np.inf]]), "linear", "no plottable"),
        (TimeSeries(("t", "y"), [[1.0, -1.0], [2.0, 0.0]]), "loglog", "no plottable"),
    ],
)
def test_a_rejected_plot_leaves_no_file(tmp_path, series, kind, match):
    for writer, name in ((emit_plot, "block.svg"), (reference_plot, "whole.svg")):
        with pytest.raises(ValueError, match=match):
            writer(series, tmp_path / name, kind=kind)
    assert list(tmp_path.iterdir()) == []


def traced_peak(writer, series: TimeSeries, path: Path) -> int:
    tracemalloc.start()
    try:
        writer(series, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "writer, reference", [(write_csv, reference_csv), (emit_plot, reference_plot)]
)
def test_writer_memory_does_not_grow_with_the_series(tmp_path, writer, reference):
    # the 26,001 x 6 series of blowup_dense's size; the whole-series writers
    # peaked at 10.8 MB (CSV) and 8.7 MB (SVG) on this series, the block
    # writers at 1.1 MB and 1.8 MB
    series = series_of(26_001, special=False)
    whole = traced_peak(reference, series, tmp_path / "whole")
    block = traced_peak(writer, series, tmp_path / "block")
    assert (tmp_path / "block").read_bytes() == (tmp_path / "whole").read_bytes()
    assert block < whole / 4, (block, whole)
