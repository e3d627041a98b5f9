"""Metric aggregation and rendering helpers for the experiments."""

from repro.analysis.metrics import arithmetic_mean, percent_reduction
from repro.analysis.tables import format_series, format_table

__all__ = [
    "arithmetic_mean",
    "format_series",
    "format_table",
    "percent_reduction",
]
