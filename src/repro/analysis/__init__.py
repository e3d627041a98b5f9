"""Metric aggregation and rendering helpers for the experiments."""

from repro.analysis.export import export_rows
from repro.analysis.metrics import (
    arithmetic_mean,
    geometric_mean,
    normalize_to,
    percent_reduction,
)
from repro.analysis.tables import format_series, format_table

__all__ = [
    "arithmetic_mean",
    "export_rows",
    "format_series",
    "format_table",
    "geometric_mean",
    "normalize_to",
    "percent_reduction",
]
