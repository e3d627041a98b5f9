"""Multiprogrammed workload mixes (the paper's §6 CMP outlook).

    "Access reordering mechanisms will play a more important role with
    chip level multiple processors, as the memory controller will have
    larger number of outstanding main memory accesses from which to
    select."  (§6)

A mix interleaves the miss streams of several benchmark profiles as if
independent cores shared one memory controller.  Each merged record
carries its core as its ``source`` (the tenant id behind the
per-source stats), its address is offset into the core's private
slice of the physical address space (cores share no rows), and
records are merged by accumulated instruction position — a
proportional-progress interleaving that keeps each stream's
intra-core gaps intact.
"""

from __future__ import annotations

import heapq
from itertools import starmap
from operator import itemgetter
from typing import Iterable, Sequence

from repro.errors import ConfigError
from repro.workloads.spec2000 import make_benchmark_trace
from repro.workloads.trace import Trace, TraceRecord, trace_rows

#: Address-space slice given to each core of a mix (1 GB).
CORE_STRIDE_BYTES = 1 << 30


def interleave_traces(traces: Sequence[Iterable[TraceRecord]]) -> Trace:
    """Merge per-core traces by instruction position.

    Each core is assumed to progress at the same instruction rate;
    records are ordered by their cumulative instruction offset within
    their own stream (ties go to the lower core), and gaps are
    recomputed so the merged trace's cumulative positions match the
    per-core ones on a shared timeline.  Each merged record's
    ``source`` is its core's index.
    """
    if not traces:
        raise ConfigError("interleave_traces needs at least one trace")

    def positioned(core: int, trace: Iterable[TraceRecord]):
        position = 0
        offset = core * CORE_STRIDE_BYTES
        for gap, op, address, _ in trace_rows(trace):
            position += gap
            yield position, op, address + offset, core

    def merged():
        last_position = 0
        for position, op, address, core in heapq.merge(
            *starmap(positioned, enumerate(traces)), key=itemgetter(0)
        ):
            yield position - last_position, op, address, core
            last_position = position

    return Trace.from_rows(merged())


def make_mix_trace(
    benchmarks: Sequence[str], accesses_per_core: int, seed: int = 1
) -> Trace:
    """A CMP mix of named benchmark profiles, one core each.

    At most four cores fit the baseline 4 GB address space (each core
    owns a 1 GB slice).
    """
    if not benchmarks:
        raise ConfigError("a mix needs at least one benchmark")
    if len(benchmarks) > 4:
        raise ConfigError(
            "at most 4 cores fit the 4 GB baseline address space"
        )
    traces = [
        make_benchmark_trace(name, accesses_per_core, seed + core)
        for core, name in enumerate(benchmarks)
    ]
    return interleave_traces(traces)


#: Ready-made mixes exercising the §6 scenarios.
STANDARD_MIXES = {
    "fp_stream_mix": ("swim", "mgrid", "applu", "lucas"),
    "int_mix": ("gcc", "gzip", "parser", "bzip2"),
    "mixed_mix": ("swim", "mcf", "gcc", "art"),
}


__all__ = [
    "CORE_STRIDE_BYTES",
    "STANDARD_MIXES",
    "interleave_traces",
    "make_mix_trace",
]
