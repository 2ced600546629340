"""Time-series container and deterministic CSV/JSON writers.

CSV files carry one header row and the shortest round-trip form (``repr``)
of every value, all of them floats, so refinement studies reproduce
bit-for-bit.  A series is formatted from one ``tolist()`` of its rows.
JSON reports keep their insertion order.  Identical inputs give
byte-identical files.
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


def write_csv(series: TimeSeries, path: Path) -> None:
    lines = [",".join(series.columns)]
    lines += [",".join(map(repr, row)) for row in series.rows.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(report: dict, path: Path) -> None:
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
