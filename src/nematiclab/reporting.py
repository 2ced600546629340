"""Time-series container and deterministic CSV/JSON writers.

CSV files carry one header row and the shortest round-trip form (``repr``)
of every value, all of them floats, so refinement studies reproduce
bit-for-bit.  A series is written in blocks of ``BLOCK_ROWS`` rows, each
formatted from its own ``tolist()``, so the writer's memory does not grow
with the series (DECISIONS.md section 4).  JSON reports keep their
insertion order.  Identical inputs give byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class TimeSeries:
    columns: tuple[str, ...]
    rows: np.ndarray  # shape (n, len(columns)); first column is time

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.columns):
            raise ValueError("row arity does not match columns")
        t = self.rows[:, 0]
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("time column must be strictly increasing")


# Rows formatted at a time by the CSV and SVG writers (DECISIONS.md section
# 4).  On the 26,001 x 6 series of blowup_dense, write_csv traced 0.28 MB at
# 512 rows, 1.1 MB at 2,048, 4.3 MB at 8,192 and 13.5 MB in one piece, in
# the same time; emit_plot traced 1.6, 1.8, 2.8 and 5.8 MB, and took longer
# below 2,048 rows (86 ms at 512, 75 ms at 2,048; one core of a 2-core
# x86-64 Xeon).
BLOCK_ROWS = 2048


def write_csv(series: TimeSeries, path: Path) -> None:
    with path.open("w", encoding="utf-8") as f:
        f.write(",".join(series.columns) + "\n")
        for i in range(0, len(series.rows), BLOCK_ROWS):
            block = series.rows[i : i + BLOCK_ROWS].tolist()
            f.write("\n".join([",".join(map(repr, row)) for row in block]) + "\n")


def write_json(report: dict, path: Path) -> None:
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
