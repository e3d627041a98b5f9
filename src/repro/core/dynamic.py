"""Dynamic threshold burst scheduling — the paper's §7 future work.

    "Burst scheduling with static threshold works well on average,
    however, benchmarks have unique access patterns, and therefore
    require different thresholds.  A dynamical threshold, which is
    calculated on the fly based on some critical parameters such as
    read write ratios, will match access patterns of different
    benchmarks for further performance improvement."  (§7)

:class:`DynamicThresholdBurstScheduler` implements exactly that
suggestion: it observes the read/write mix of recently enqueued
accesses over fixed epochs and recomputes the threshold each epoch.
Write-heavy phases lower the threshold (piggybacking engages earlier,
keeping the write queue from saturating); read-heavy phases raise it
(reads preempt writes more freely, since the write queue fills
slowly).  The mapping is linear in the observed write ratio:

    threshold = clamp(round(Q * (1 - write_ratio)), floor, ceiling)

where ``Q`` is the write queue capacity.  With a 30%-write workload
that yields ~45 of 64 — close to the paper's static optimum of 52 for
its mix — while a 50%-write phase drops to 32.
"""

from __future__ import annotations

from typing import Optional

from repro.controller.access import MemoryAccess
from repro.core.scheduler import BurstScheduler
from repro.errors import SchedulerError


class DynamicThresholdBurstScheduler(BurstScheduler):
    """Burst_TH whose threshold tracks the read/write ratio.

    Inherits the flat-array fast pass unchanged: ``threshold`` is read
    afresh on every schedule pass, and it only moves inside the enqueue
    hooks below — which break the no-op schedule gate — so a retune can
    never be skipped over by the next-event engine.
    """

    name = "Burst_DYN"

    def __init__(
        self,
        config,
        channel,
        pool,
        stats,
        epoch_accesses: int = 512,
        floor: Optional[int] = None,
        ceiling: Optional[int] = None,
    ) -> None:
        super().__init__(
            config,
            channel,
            pool,
            stats,
            read_preemption=True,
            write_piggybacking=True,
        )
        self.epoch_accesses = max(epoch_accesses, 1)
        if ceiling is None:
            ceiling = max(config.write_queue_size - 4, 0)
        if floor is None:
            floor = min(8, ceiling)
        # An inverted band would silently pin the threshold to the
        # ceiling (min runs before max in the clamp), and a ceiling
        # past the write queue capacity can never be reached by the
        # occupancy test — both are configuration errors, not values
        # to clamp into shape.
        if not 0 <= floor <= ceiling:
            raise SchedulerError(
                f"dynamic threshold floor {floor} must lie in "
                f"[0, ceiling {ceiling}]"
            )
        if ceiling > config.write_queue_size:
            raise SchedulerError(
                f"dynamic threshold ceiling {ceiling} exceeds the "
                f"write queue size {config.write_queue_size}"
            )
        self.floor = floor
        self.ceiling = ceiling
        self._epoch_reads = 0
        self._epoch_writes = 0
        self.threshold_history = [self.threshold]

    # ------------------------------------------------------------------
    # Epoch accounting hooks into the enqueue path
    # ------------------------------------------------------------------

    def _enqueue_read(self, access: MemoryAccess, cycle: int) -> None:
        super()._enqueue_read(access, cycle)
        self._epoch_reads += 1
        self._maybe_retune()

    def _enqueue_write(self, access: MemoryAccess, cycle: int) -> None:
        super()._enqueue_write(access, cycle)
        self._epoch_writes += 1
        self._maybe_retune()

    def _maybe_retune(self) -> None:
        total = self._epoch_reads + self._epoch_writes
        if total < self.epoch_accesses:
            return
        write_ratio = self._epoch_writes / total
        capacity = self.pool.write_capacity
        target = round(capacity * (1.0 - write_ratio))
        self.threshold = max(self.floor, min(self.ceiling, target))
        self.threshold_history.append(self.threshold)
        self._epoch_reads = 0
        self._epoch_writes = 0


__all__ = ["DynamicThresholdBurstScheduler"]
