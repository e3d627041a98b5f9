"""Small numeric helpers shared by the experiment modules.

The paper reports execution times "normalized to BkInOrder" and
"averaged crossing all benchmarks" (arithmetic mean of the normalized
values, per common practice in the era).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigError


def arithmetic_mean(values: Sequence[float]) -> float:
    """Plain average; raises on empty input."""
    values = list(values)
    if not values:
        raise ConfigError("mean of empty sequence")
    return sum(values) / len(values)


def percent_reduction(normalized: float) -> float:
    """1.0 -> 0%, 0.79 -> 21% (the paper's headline phrasing)."""
    return (1.0 - normalized) * 100.0


__all__ = [
    "arithmetic_mean",
    "percent_reduction",
]
