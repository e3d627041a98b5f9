"""Synthetic main-memory miss-stream generator.

The generator models the structure cache-filtered SPEC CPU2000 miss
streams exhibit (paper §2: "significant spatial and temporal locality
even after being filtered by caches"):

* **Streams** — concurrent sequential walkers (array sweeps).  A
  stream produces runs of accesses marching line by line through rows,
  the source of row locality and burst-formation opportunity.
* **Random pool** — uniformly distributed accesses over the footprint
  (pointer chasing, hash tables), the source of row conflicts.
* **Eviction echo** — writebacks replay the read stream delayed by the
  cache's reuse distance, giving writes their own row locality (what
  write piggybacking exploits, §3.2) while staying out of phase with
  the reads.
* **Instruction gaps** — misses arrive in *clusters*, the way loop
  bodies produce them: within a cluster consecutive misses are a few
  instructions apart (they sit in the ROB together, creating the deep
  outstanding-access queues of the paper's Figure 8), and clusters are
  separated by long computation gaps sized so the overall mean gap is
  1000/APKI.  ``burstiness`` is the probability the next miss stays in
  the current cluster (mean cluster length ``1/(1-burstiness)``).
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Iterator, List

from repro.controller.access import AccessType
from repro.errors import ConfigError
from repro.workloads.trace import TraceRecord

LINE_BYTES = 64


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters describing one synthetic miss stream.

    ``mean_gap`` is the mean instruction distance between consecutive
    main-memory accesses (1000 / accesses-per-kilo-instruction).
    ``stream_frac`` is the probability a read comes from a sequential
    stream rather than the random pool.  ``eviction_lag`` is the reuse
    distance, in lines, at which writebacks echo earlier reads.
    """

    name: str
    mean_gap: float
    write_frac: float
    streams: int
    stream_frac: float
    stride_lines: int = 1
    footprint_mb: int = 64
    eviction_lag: int = 512
    burstiness: float = 0.85
    #: Stream bases are random multiples of this many lines.  Large
    #: power-of-two alignments model page-aligned array allocation:
    #: concurrently swept arrays land in the same banks (different
    #: rows), producing the row conflicts that in-order scheduling
    #: suffers and access reordering repairs (paper Figure 9a).
    alignment_lines: int = 1

    def __post_init__(self) -> None:
        if self.mean_gap <= 0:
            raise ConfigError("mean_gap must be positive")
        if not 0.0 <= self.write_frac < 1.0:
            raise ConfigError("write_frac must lie in [0, 1)")
        if not 0.0 <= self.stream_frac <= 1.0:
            raise ConfigError("stream_frac must lie in [0, 1]")
        if not 0.0 <= self.burstiness < 1.0:
            raise ConfigError("burstiness must lie in [0, 1)")
        if self.streams < 0 or self.stride_lines <= 0:
            raise ConfigError("streams must be >= 0, stride positive")
        if self.footprint_mb <= 0 or self.eviction_lag < 0:
            raise ConfigError("footprint/eviction_lag out of range")
        if self.alignment_lines <= 0:
            raise ConfigError("alignment_lines must be positive")


def iter_trace(
    spec: WorkloadSpec, accesses: int, seed: int = 1
) -> Iterator[TraceRecord]:
    """Yield ``accesses`` miss-trace records for ``spec``.

    Deterministic for a given ``(spec, accesses, seed)`` triple, so
    every mechanism in a comparison replays the identical stream.
    """
    # zlib.crc32 is stable across processes (unlike hash(), which is
    # salted by PYTHONHASHSEED) so traces are reproducible everywhere.
    rng = random.Random(zlib.crc32(spec.name.encode()) * 31 + seed)
    footprint_lines = spec.footprint_mb * (1 << 20) // LINE_BYTES
    align = spec.alignment_lines
    bases = max(footprint_lines // align, 1)
    stream_pos: List[int] = [
        rng.randrange(bases) * align for _ in range(max(spec.streams, 1))
    ]
    evictions: deque = deque()
    # Within a cluster gaps average ~1 instruction; the inter-cluster
    # computation gap is sized so the overall mean stays at mean_gap.
    in_cluster_mean = 1.0
    stay = spec.burstiness
    between = max(
        (spec.mean_gap - stay * in_cluster_mean) / (1.0 - stay), 0.0
    )

    for _ in range(accesses):
        if rng.random() < stay:
            gap = rng.randrange(3)
        else:
            gap = int(rng.expovariate(1.0 / between)) if between else 0

        if evictions and (
            len(evictions) > spec.eviction_lag
            and rng.random() < spec.write_frac
        ):
            line = evictions.popleft()
            yield TraceRecord(gap, AccessType.WRITE, line * LINE_BYTES)
            continue

        if spec.streams and rng.random() < spec.stream_frac:
            index = rng.randrange(spec.streams)
            stream_pos[index] = (
                stream_pos[index] + spec.stride_lines
            ) % footprint_lines
            line = stream_pos[index]
        else:
            line = rng.randrange(footprint_lines)
        evictions.append(line)
        yield TraceRecord(gap, AccessType.READ, line * LINE_BYTES)


def generate_trace(
    spec: WorkloadSpec, accesses: int, seed: int = 1
) -> List[TraceRecord]:
    """Materialise :func:`iter_trace` as a list."""
    return list(iter_trace(spec, accesses, seed))


__all__ = ["LINE_BYTES", "WorkloadSpec", "generate_trace", "iter_trace"]
