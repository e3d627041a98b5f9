"""Microbenchmark access patterns for characterisation.

Classic directed patterns (lmbench/STREAM style) used to characterise
the memory system independently of SPEC-like workloads:

* ``stream``        — one sequential walker: pure row hits, the
  highest bandwidth the open-page system can deliver;
* ``bank_thrash``   — alternates two rows of one bank: pure row
  conflicts, the open-page worst case Table 1 prices at 15 cycles;
* ``stride``        — fixed-stride walker; sweeping the stride maps
  out the row/bank geometry the way lmbench maps cache sizes;
* ``random``        — uniform over a footprint: row-empty/conflict
  mix dominated by bank parallelism;
* ``pingpong``      — read-write alternation on one row: exercises
  the data bus direction-turnaround penalties.

Each builder returns a packed :class:`~repro.workloads.trace.Trace`
with a constant instruction gap, so latency/bandwidth effects come
from the memory system alone.
"""

from __future__ import annotations

import random
from typing import Callable, Dict

from repro.controller.access import AccessType
from repro.errors import ConfigError
from repro.workloads.trace import Trace

LINE = 64


READ, WRITE = AccessType.READ, AccessType.WRITE


def stream(accesses: int, gap: int = 4, start: int = 0) -> Trace:
    """Sequential reads, one line after another."""
    return Trace.from_rows(
        (gap, READ, start + i * LINE, 0) for i in range(accesses)
    )


def bank_thrash(
    accesses: int, gap: int = 4, row_stride: int = 256 * 1024 * 32
) -> Trace:
    """Alternate two rows that collide in the same bank.

    With the baseline page-interleaved mapping, addresses one full
    bank-rotation apart (32 banks x 8KB = 256KB) share a bank; the
    default stride places the second row 32 rotations away so both
    land in bank 0 with different row indices.
    """
    return Trace.from_rows(
        (gap, READ, (i % 2) * row_stride + (i // 2) % 64 * LINE, 0)
        for i in range(accesses)
    )


def stride(
    accesses: int, stride_bytes: int, gap: int = 4, start: int = 0
) -> Trace:
    """Fixed-stride reads."""
    if stride_bytes <= 0:
        raise ConfigError("stride must be positive")
    return Trace.from_rows(
        (gap, READ, start + i * stride_bytes, 0) for i in range(accesses)
    )


def random_reads(
    accesses: int, footprint_mb: int = 512, gap: int = 4, seed: int = 1
) -> Trace:
    """Uniformly random reads over a footprint."""
    rng = random.Random(seed)
    lines = footprint_mb * (1 << 20) // LINE
    return Trace.from_rows(
        (gap, READ, rng.randrange(lines) * LINE, 0) for _ in range(accesses)
    )


def pingpong(accesses: int, gap: int = 4) -> Trace:
    """Alternate reads and writes within one row (bus turnaround)."""
    # Each write writes back the line the read before it read.
    return Trace.from_rows(
        (gap, WRITE if i % 2 else READ, i // 2 % 64 * LINE, 0)
        for i in range(accesses)
    )


#: name -> builder(accesses) with default parameters.
MICROBENCHMARKS: Dict[str, Callable[[int], Trace]] = {
    "stream": stream,
    "bank_thrash": bank_thrash,
    "stride64": lambda n: stride(n, 64),
    "stride8k": lambda n: stride(n, 8 * 1024),
    "stride256k": lambda n: stride(n, 256 * 1024),
    "random": random_reads,
    "pingpong": pingpong,
}


__all__ = [
    "MICROBENCHMARKS",
    "bank_thrash",
    "pingpong",
    "random_reads",
    "stream",
    "stride",
]
