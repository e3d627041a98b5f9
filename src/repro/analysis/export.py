"""CSV export of tabular results.

Every experiment returns plain dict/list structures; :func:`export_rows`
writes a header and rows to a CSV file (``repro-sim --csv`` uses it) so
results can be pulled into pandas/gnuplot/spreadsheets without
re-running simulations.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence, Union

from repro.errors import ConfigError

PathLike = Union[str, Path]


def export_rows(
    path: PathLike,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> int:
    """Write header + rows; returns the number of data rows written."""
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            if len(row) != len(headers):
                raise ConfigError(
                    f"row width {len(row)} != header width {len(headers)}"
                )
            writer.writerow(row)
            count += 1
    return count


__all__ = ["export_rows"]
