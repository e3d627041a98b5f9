"""QoS-aware burst scheduling for multi-tenant fleet mode.

When ``config.sources > 1`` independent workload streams (tenants)
share one controller, plain burst scheduling optimises aggregate bus
utilisation with no regard for *who* owns each access.  A **write
flooder** (exercised by the fleet scenario matrix) fills the shared
write queue, driving the occupancy past the Burst_TH threshold so every
bank piggybacks the flooder's writes while the victim's reads wait.

:class:`WriteQuotaBurstScheduler` (``Burst_QW``) counters it by capping
any tenant's write-queue occupancy at ``write_queue_size // sources``
via the admission hook — an over-quota write is rejected exactly like a
full pool, with zero side effects, so the next-event engine's
quiet-cycle fixpoint (and byte-identical fast mode) is preserved.  It
degrades to exactly ``Burst_TH`` when ``sources == 1`` (the cap becomes
unreachable), so it enrolls in the single-stream differential harnesses
unchanged.
"""

from __future__ import annotations

from repro.controller.access import MemoryAccess
from repro.core.scheduler import BurstScheduler


class WriteQuotaBurstScheduler(BurstScheduler):
    """Burst_TH plus a per-source write-queue quota (``Burst_QW``).

    ``admits`` rejects a write whose source already holds its share of
    the write queue; reads are always admitted.  Because rejection is
    indistinguishable from pool back-pressure, drivers retry on later
    cycles and no scheduler or pool state mutates — the quota frees
    only when one of the tenant's pooled writes retires.
    """

    name = "Burst_QW"

    def __init__(self, config, channel, pool, stats) -> None:
        super().__init__(
            config,
            channel,
            pool,
            stats,
            read_preemption=True,
            write_piggybacking=True,
        )
        #: Per-tenant write-queue cap.  With ``sources == 1`` this is
        #: the whole queue, which ``Pool.can_accept`` already enforces,
        #: so the quota never binds and Burst_QW ≡ Burst_TH.
        self.write_quota = max(1, config.write_queue_size // config.sources)

    def admits(self, access: MemoryAccess, cycle: int) -> bool:
        if access.is_read:
            return True
        return self.pool.source_write_count(access.source) < self.write_quota

    def _write_pressure(self) -> bool:
        """Any tenant at its quota counts as a full write queue.

        Figure 5's full-queue drain is what keeps the plain mechanism
        live when writes back up; the per-tenant analogue is needed
        for the same reason, otherwise a quota-blocked tenant can wait
        indefinitely — the global occupancy may sit below both the
        piggyback threshold and the queue capacity while other
        tenants' reads keep the read-queue-empty drain path off.  For
        one tenant (quota == queue size) this is exactly the base
        signal.
        """
        if self.pool.write_queue_full:
            return True
        quota = self.write_quota
        return any(
            count >= quota
            for count in self.pool.write_count_by_source.values()
        )

    def _pressure_write(self, key):
        """Drain the oldest write of a tenant that is AT its quota —
        but only on a read-idle bank.

        Targeting matters: draining another tenant's (older) write
        would spend data-bus time without freeing the quota that
        raised the pressure.  Yielding to queued reads matters just as
        much: quota pressure, unlike a full queue, can persist for
        thousands of cycles, and an unconditional drain would turn the
        whole channel into write mode below the RP threshold — where
        line 9 would then preempt the drain write, re-select it next
        pass, and oscillate (sequential passes see every swing, gated
        fast-mode passes see only some: byte-identity dies).  A bank
        with queued reads serves them; at-quota writes drain through
        read-idle banks, and the admission cap — not the drain — is
        what actually protects the victim.  Under a genuinely full
        queue every write blocks the pool, so the base oldest-write
        drain applies regardless of reads (with one tenant that is the
        only reachable case).
        """
        if self.pool.write_queue_full:
            return self._oldest_write(key)
        if self._read_queues[key]:
            return None
        quota = self.write_quota
        counts = self.pool.write_count_by_source
        for access in self._write_queues[key]:
            if counts.get(
                access.source, 0
            ) >= quota and not self.write_is_war_blocked(access):
                return access
        return None


__all__ = ["WriteQuotaBurstScheduler"]
