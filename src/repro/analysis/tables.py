"""Plain-text rendering of experiment tables and figure series.

Every experiment prints its result in the same layout the paper uses,
so EXPERIMENTS.md can hold paper-vs-measured pairs side by side.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render an aligned fixed-width table."""
    rendered_rows = []
    for row in rows:
        rendered_rows.append(
            [
                float_format.format(cell) if isinstance(cell, float) else str(cell)
                for cell in row
            ]
        )
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    parts = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append(line(["-" * w for w in widths]))
    parts.extend(line(row) for row in rendered_rows)
    return "\n".join(parts)


def format_series(
    name: str,
    points: Iterable[Tuple[object, float]],
    value_format: str = "{:.4f}",
) -> str:
    """Render one figure series as ``name: x=value`` pairs, one per line."""
    lines = [f"series {name}:"]
    lines.extend(
        f"  {x}: {value_format.format(y)}" for x, y in points
    )
    return "\n".join(lines)


__all__ = ["format_series", "format_table"]
