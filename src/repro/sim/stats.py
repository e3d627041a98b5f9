"""Statistics primitives and the per-run statistics bundle.

Everything the paper's evaluation section plots comes out of
:class:`SimStats`:

* read/write latency in SDRAM cycles (Figure 7, Figure 12);
* time-weighted distributions of outstanding reads and writes
  (Figure 8, Figure 11);
* row hit / row conflict / row empty counts (Figure 9a);
* address and data bus utilisation (Figure 9b);
* write-queue saturation time (§5.1, §5.4);
* execution time in cycles (Figure 10, Figure 12).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro.dram.channel import RowState


class LatencyStat:
    """Streaming mean/min/max accumulator for latency samples."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def add(self, value: int) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Average of all samples; 0.0 when empty."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Optional[int]]:
        """JSON-safe snapshot; ``min``/``max`` stay ``None`` when empty."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Optional[int]]) -> "LatencyStat":
        """Inverse of :meth:`to_dict` (lossless round-trip)."""
        stat = cls()
        stat.count = int(data["count"])
        stat.total = int(data["total"])
        stat.min = None if data["min"] is None else int(data["min"])
        stat.max = None if data["max"] is None else int(data["max"])
        return stat

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LatencyStat(n={self.count}, mean={self.mean:.1f})"


class Histogram:
    """Integer-keyed histogram with optional weights.

    Used time-weighted: the simulator adds one sample per memory cycle
    keyed by the number of outstanding accesses, which is precisely the
    paper's "percentage of time that a given number of accesses are
    outstanding" (Figure 8).
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Dict[int, int] = defaultdict(int)

    def add(self, key: int, weight: int = 1) -> None:
        self.counts[key] += weight

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def fraction(self, key: int) -> float:
        """Share of total weight at ``key``."""
        total = self.total
        return self.counts.get(key, 0) / total if total else 0.0

    def fraction_at_least(self, key: int) -> float:
        """Share of total weight at or above ``key``."""
        total = self.total
        if not total:
            return 0.0
        return sum(v for k, v in self.counts.items() if k >= key) / total

    def mean(self) -> float:
        total = self.total
        if not total:
            return 0.0
        return sum(k * v for k, v in self.counts.items()) / total

    def series(self) -> Iterable[Tuple[int, float]]:
        """(key, fraction) pairs sorted by key — a paper figure series."""
        total = self.total
        if not total:
            return []
        return [(k, v / total) for k, v in sorted(self.counts.items())]

    def percentile(self, q: float) -> float:
        """Smallest key whose cumulative weight reaches fraction ``q``.

        ``q`` is in [0, 1]; the weighted analogue of the nearest-rank
        percentile (``percentile(0.99)`` is the p99 of the samples).
        Returns 0.0 for an empty histogram.
        """
        total = self.total
        if not total:
            return 0.0
        target = q * total
        running = 0
        last = 0
        for key, weight in sorted(self.counts.items()):
            running += weight
            last = key
            if running >= target:
                return float(key)
        return float(last)

    def to_dict(self) -> Dict[str, int]:
        """JSON-safe snapshot (JSON keys must be strings)."""
        return {str(k): v for k, v in sorted(self.counts.items())}

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "Histogram":
        """Inverse of :meth:`to_dict` (lossless round-trip)."""
        hist = cls()
        for key, weight in data.items():
            hist.counts[int(key)] = int(weight)
        return hist


class SourceStats:
    """Per-tenant statistics in fleet mode (one per source id).

    The scheduler base class records into exactly one of these per
    completed access, keyed by ``MemoryAccess.source``, at the same
    events in both engine paths — so the per-source bundle is
    byte-identical across sequential, fast-forward and
    checkpoint-resumed runs, like everything else in
    :class:`SimStats`.  Each read is recorded once, in
    :attr:`read_latencies`; :attr:`read_latency` is derived from it.
    """

    __slots__ = (
        "write_latency",
        "read_latencies",
        "row_states",
        "completed_reads",
        "completed_writes",
        "forwarded_reads",
        "data_bus_cycles",
    )

    def __init__(self) -> None:
        self.write_latency = LatencyStat()
        #: Full read-latency histogram: tail metrics (p99) for the
        #: starvation regressions need more than mean/min/max.
        self.read_latencies = Histogram()
        self.row_states: Dict[RowState, int] = {s: 0 for s in RowState}
        self.completed_reads = 0
        self.completed_writes = 0
        self.forwarded_reads = 0
        self.data_bus_cycles = 0

    @property
    def read_latency(self) -> LatencyStat:
        """Mean/min/max view of :attr:`read_latencies` (read-only).

        Equal to a :class:`LatencyStat` fed the same samples; built on
        each access, so keep it off the hot path.
        """
        stat = LatencyStat()
        counts = {k: w for k, w in self.read_latencies.counts.items() if w}
        if counts:
            stat.count = sum(counts.values())
            stat.total = sum(k * w for k, w in counts.items())
            stat.min = min(counts)
            stat.max = max(counts)
        return stat

    def p99_read_latency(self) -> float:
        return self.read_latencies.percentile(0.99)

    def to_dict(self) -> Dict[str, object]:
        return {
            "write_latency": self.write_latency.to_dict(),
            "read_latencies": self.read_latencies.to_dict(),
            "row_states": {
                state.value: self.row_states.get(state, 0)
                for state in RowState
            },
            "completed_reads": self.completed_reads,
            "completed_writes": self.completed_writes,
            "forwarded_reads": self.forwarded_reads,
            "data_bus_cycles": self.data_bus_cycles,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SourceStats":
        stats = cls()
        stats.write_latency = LatencyStat.from_dict(data["write_latency"])
        stats.read_latencies = Histogram.from_dict(data["read_latencies"])
        for label, count in data["row_states"].items():
            stats.row_states[RowState(label)] = int(count)
        stats.completed_reads = int(data["completed_reads"])
        stats.completed_writes = int(data["completed_writes"])
        stats.forwarded_reads = int(data["forwarded_reads"])
        stats.data_bus_cycles = int(data["data_bus_cycles"])
        return stats


@dataclass
class SimStats:
    """Everything one simulation run reports."""

    cycles: int = 0
    read_latency: LatencyStat = field(default_factory=LatencyStat)
    write_latency: LatencyStat = field(default_factory=LatencyStat)
    row_states: Dict[RowState, int] = field(
        default_factory=lambda: {state: 0 for state in RowState}
    )
    outstanding_reads: Histogram = field(default_factory=Histogram)
    outstanding_writes: Histogram = field(default_factory=Histogram)
    completed_reads: int = 0
    completed_writes: int = 0
    forwarded_reads: int = 0
    preemptions: int = 0
    piggybacked_writes: int = 0
    write_queue_full_cycles: int = 0
    pool_full_cycles: int = 0
    cmd_bus_cycles: int = 0
    data_bus_cycles: int = 0
    refreshes: int = 0
    cpu_stall_cycles: int = 0
    instructions: int = 0
    #: Sizes of completed read bursts (burst scheduling only): the
    #: payload distribution of Figure 2.  A mean near 1 means the
    #: workload gives the mechanism nothing to cluster.
    burst_sizes: Histogram = field(default_factory=Histogram)
    #: Per-tenant statistics, keyed by ``MemoryAccess.source`` (fleet
    #: mode).  Single-stream runs put everything under source 0; use
    #: :meth:`for_source` to read-or-create an entry.
    per_source: Dict[int, SourceStats] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Next-event lookout diagnostics (deliberately NOT dataclass
        # fields): how next_event_cycle scans split into productive
        # windows (a leap of >= 2 cycles) versus short ones.  Engine
        # bookkeeping, not simulation results — keeping them out of
        # the field set keeps them out of to_dict()/report(), so
        # cached results stay byte-identical whether or not
        # fast-forward ran.
        self.lookout_hits = 0
        self.lookout_misses = 0

    #: Plain integer counters (everything that is not a nested
    #: accumulator); serialized as they are.
    _COUNTER_FIELDS = (
        "cycles",
        "completed_reads",
        "completed_writes",
        "forwarded_reads",
        "preemptions",
        "piggybacked_writes",
        "write_queue_full_cycles",
        "pool_full_cycles",
        "cmd_bus_cycles",
        "data_bus_cycles",
        "refreshes",
        "cpu_stall_cycles",
        "instructions",
    )

    # ------------------------------------------------------------------
    # Serialization (worker results, result cache)
    # ------------------------------------------------------------------

    def for_source(self, source: int) -> SourceStats:
        """The per-tenant bundle for ``source``, created on demand."""
        stats = self.per_source.get(source)
        if stats is None:
            stats = self.per_source[source] = SourceStats()
        return stats

    def to_dict(self) -> Dict[str, object]:
        """Lossless JSON-safe snapshot of every field.

        ``from_dict(to_dict())`` reconstructs an equal bundle; the
        persistent result cache and the worker pool's ``done`` events
        both ship stats through this form.  ``tests/test_stats.py`` asserts
        the key set matches the dataclass fields, so a new field cannot
        silently skip serialization.
        """
        data: Dict[str, object] = {
            name: getattr(self, name) for name in self._COUNTER_FIELDS
        }
        data["read_latency"] = self.read_latency.to_dict()
        data["write_latency"] = self.write_latency.to_dict()
        data["row_states"] = {
            state.value: self.row_states.get(state, 0) for state in RowState
        }
        data["outstanding_reads"] = self.outstanding_reads.to_dict()
        data["outstanding_writes"] = self.outstanding_writes.to_dict()
        data["burst_sizes"] = self.burst_sizes.to_dict()
        data["per_source"] = {
            str(source): stat.to_dict()
            for source, stat in sorted(self.per_source.items())
        }
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimStats":
        """Inverse of :meth:`to_dict` (lossless round-trip)."""
        stats = cls()
        for name in cls._COUNTER_FIELDS:
            # No int() coercion: bus-cycle counters are per-channel
            # *averages* (see MemorySystem.finalize) and may be
            # fractional; JSON already round-trips int/float exactly.
            setattr(stats, name, data[name])
        stats.read_latency = LatencyStat.from_dict(data["read_latency"])
        stats.write_latency = LatencyStat.from_dict(data["write_latency"])
        for label, count in data["row_states"].items():
            stats.row_states[RowState(label)] = int(count)
        stats.outstanding_reads = Histogram.from_dict(
            data["outstanding_reads"]
        )
        stats.outstanding_writes = Histogram.from_dict(
            data["outstanding_writes"]
        )
        stats.burst_sizes = Histogram.from_dict(data["burst_sizes"])
        stats.per_source = {
            int(source): SourceStats.from_dict(stat)
            for source, stat in data.get("per_source", {}).items()
        }
        return stats

    # ------------------------------------------------------------------
    # Derived metrics used by the experiment harness
    # ------------------------------------------------------------------

    def row_state_rates(self) -> Dict[str, float]:
        """Row hit/conflict/empty as fractions of classified accesses."""
        total = sum(self.row_states.values())
        if not total:
            return {state.value: 0.0 for state in RowState}
        return {
            state.value: count / total
            for state, count in self.row_states.items()
        }

    @property
    def row_hit_rate(self) -> float:
        return self.row_state_rates()["hit"]

    @property
    def address_bus_utilization(self) -> float:
        """Fraction of cycles the command bus carried a command."""
        return self.cmd_bus_cycles / self.cycles if self.cycles else 0.0

    @property
    def data_bus_utilization(self) -> float:
        """Fraction of cycles the data bus carried a burst (Fig. 9b)."""
        return self.data_bus_cycles / self.cycles if self.cycles else 0.0

    @property
    def write_queue_saturation(self) -> float:
        """Fraction of time the write queue was full (§5.1)."""
        return (
            self.write_queue_full_cycles / self.cycles if self.cycles else 0.0
        )

    @property
    def mean_read_latency(self) -> float:
        return self.read_latency.mean

    @property
    def mean_write_latency(self) -> float:
        return self.write_latency.mean

    def effective_bandwidth_gbps(
        self, bus_bytes: int = 8, clock_mhz: int = 400
    ) -> float:
        """Data actually transferred, in GB/s (paper §5.2).

        A 64-bit DDR bus moves ``2 * bus_bytes`` bytes per busy clock
        cycle; utilisation scales the peak accordingly.
        """
        peak = 2 * bus_bytes * clock_mhz * 1e6 / 1e9
        return peak * self.data_bus_utilization

    def report(self) -> Dict[str, float]:
        """Flat dictionary of the headline metrics of a run."""
        rates = self.row_state_rates()
        return {
            "cycles": float(self.cycles),
            "read_latency": self.mean_read_latency,
            "write_latency": self.mean_write_latency,
            "row_hit": rates["hit"],
            "row_conflict": rates["conflict"],
            "row_empty": rates["empty"],
            "addr_bus_util": self.address_bus_utilization,
            "data_bus_util": self.data_bus_utilization,
            "write_queue_saturation": self.write_queue_saturation,
            "completed_reads": float(self.completed_reads),
            "completed_writes": float(self.completed_writes),
            "forwarded_reads": float(self.forwarded_reads),
            "preemptions": float(self.preemptions),
            "piggybacked_writes": float(self.piggybacked_writes),
        }


__all__ = ["Histogram", "LatencyStat", "SimStats", "SourceStats"]
