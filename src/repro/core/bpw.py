"""Bank-parallel write drain on top of burst scheduling (``Burst_BPW``).

BARD (PAPERS.md, 2025) revisits this paper's read-preemption /
write-piggybacking tradeoff on DDR5, where write recovery grew to ~70
bus cycles and the write queue refills far faster than Burst_TH's
drain paths can empty it.  Burst_TH's pathology lives at the capacity
wall: its full-queue drain (Figure 5 lines 2-3) holds only *while*
the queue is full, so the moment one write retires the pressure
signal drops, reads resume, the stalled store re-enters, and the
queue is full again — each visit to the wall drains roughly one write
per bank and pays a read/write direction turnaround both ways.  On
DDR5 those turnarounds cost the grown tWTR/tCWL gaps, and the oldest
write of a bank is usually a row miss, so every wall visit also
closes a row the read streams are about to need.

BARD's answer is a *batch* drain of the cheap writes at bank-level
parallelism:

* a sticky drain mode latches when the queue first hits the capacity
  wall and holds until the queue is **empty** — one batch, two
  direction switches, instead of a turnaround per write;
* while latched, :meth:`_write_pressure` holds and
  :meth:`_pressure_write` hands every *read-idle* bank its oldest
  *row hit* write: column-only writes stream out of the open rows of
  all banks (and bank groups) in parallel without disturbing the row
  state the read streams depend on, and without ever making a queued
  read wait behind a drain write.  Banks with queued reads or no
  row-hit write keep serving reads through line 8 as usual, and a
  hard-full queue falls back to the paper's unconditional
  oldest-write drain so admission can never deadlock behind a
  row-missing write queue.

Until the wall is first hit the scheduler is Burst_TH exactly: same
piggybacking, same read preemption, same threshold — workloads whose
write queue never saturates (e.g. the read-dominated ``mcf``) are
byte-identical to Burst_TH.  Row-hit selection reuses
``_oldest_row_hit_write``, the same primitive line 5 piggybacking
already evaluates inside ``_arbitrate``, so the policy adds no new
state-sensitivity to either engine path.

Mode flips only when ``pool.write_count`` crosses full or empty, and
every write-count change bumps the pool's write version, which
un-gates a pool-sensitive scheduler — so recomputing the flag at the
top of :meth:`schedule` covers the sequential *and* the flat engine
path (``schedule`` dispatches to ``_schedule_flat``) without any
extra wake plumbing.
"""

from __future__ import annotations

from typing import Optional

from repro.controller.access import MemoryAccess
from repro.core.scheduler import BankKey, BurstScheduler


class BankParallelWriteScheduler(BurstScheduler):
    """Burst_TH plus a bank-parallel batch write drain (``Burst_BPW``)."""

    name = "Burst_BPW"

    def __init__(self, config, channel, pool, stats) -> None:
        super().__init__(
            config,
            channel,
            pool,
            stats,
            read_preemption=True,
            write_piggybacking=True,
        )
        #: Sticky hysteresis: latch drain mode at the capacity wall,
        #: release only once the write queue has fully emptied.  The
        #: wide gap is deliberate — exiting anywhere above empty was
        #: measured to give back most of the win, because the queue
        #: refills to the wall within a few hundred cycles.
        self._drain_high = self.pool.write_capacity
        self._drain_low = 0
        self._draining = False

    def schedule(self, cycle: int) -> None:
        count = self.pool.write_count
        if self._draining:
            if count <= self._drain_low:
                self._draining = False
        elif count >= self._drain_high:
            self._draining = True
        super().schedule(cycle)

    def _write_pressure(self) -> bool:
        """Full queue (the base signal) or a latched batch drain."""
        pool = self.pool
        return pool.write_count >= pool.write_capacity or self._draining

    def _pressure_write(self, key: BankKey) -> Optional[MemoryAccess]:
        """Row-hit writes on read-idle banks while batching; the
        paper's unconditional oldest once the queue is hard full.

        The hard-full fallback keeps the liveness property of the
        original line 3: a queue full of row-miss writes still drains,
        so a stalled store is never rejected forever.

        The read-idle guard is a byte-identity requirement, not just a
        performance choice.  Below the threshold line 9 may preempt an
        ongoing write, and the engines only agree on *when* that fires
        if preemption becomes possible through an event both can see —
        a read arriving (breaks the command gate) or the occupancy
        crossing the threshold (bumps the pool's write version).
        Selecting a drain write while reads are already queued and the
        occupancy is already below the threshold would make preemption
        eligible at selection time: the sequential engine preempts on
        the very next cycle, while the flat engine sleeps until some
        unrelated wake.  Burst_TH cannot hit this (its pressure and
        piggyback writes are only selected at or above the threshold),
        so the guard restores exactly that invariant for the batch.
        """
        if self.pool.write_queue_full:
            return self._oldest_write(key)
        if self._read_queues[key]:
            return None
        return self._oldest_row_hit_write(key)


__all__ = ["BankParallelWriteScheduler"]
