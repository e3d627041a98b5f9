"""The multi-channel memory system facade.

``MemorySystem`` assembles the pieces of paper Table 3 — address
mapping, per-channel DRAM devices with refresh controllers, one
scheduler instance per channel and the shared 256-entry access pool —
behind the interface the drivers use:

* :meth:`make_access` — translate a physical address;
* :meth:`enqueue` — present an access (may be forwarded or rejected);
* :meth:`tick` — advance one memory cycle, returning completed reads.

It also owns the statistics sampling that feeds Figures 8, 9 and 11
(time-weighted outstanding-access distributions, bus utilisation,
write-queue saturation), credited per run of constant pool occupancy.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from repro.controller.access import AccessType, EnqueueStatus, MemoryAccess
from repro.controller.pool import AccessPool
from repro.controller.registry import (
    make_refresh_policy,
    make_scheduler_factory,
)
from repro.dram.channel import Channel
from repro.dram.refresh import RefreshController
from repro.mapping.schemes import make_mapping
from repro.settings import setting
from repro.sim.config import SystemConfig
from repro.sim.stats import SimStats
from repro.timebase import NEVER


class MemorySystem:
    """Channels, schedulers, refresh and the shared access pool."""

    def __init__(
        self,
        config: SystemConfig,
        mechanism: Union[str, Callable] = "Burst_TH",
        oracle: Optional[bool] = None,
    ) -> None:
        self.config = config
        self.stats = SimStats()
        self.mapping = make_mapping(config)
        factory = (
            make_scheduler_factory(mechanism)
            if isinstance(mechanism, str)
            else mechanism
        )
        self.pool = AccessPool(config.pool_size, config.write_queue_size)
        self.channels: List[Channel] = []
        self.refreshers: List[RefreshController] = []
        self.schedulers = []
        # total_channels folds in the device's independent sub-channels
        # (DDR5: two per DIMM); each gets its own bus, refresh engine,
        # scheduler — and, when enabled, protocol oracle.
        for index in range(config.total_channels):
            channel = Channel(
                config.timing,
                index,
                config.ranks,
                config.banks,
                subarray_rows=config.subarray_rows,
            )
            self.channels.append(channel)
            refresher = make_refresh_policy(
                config.refresh_policy, channel, config.subarrays
            )
            self.refreshers.append(refresher)
            scheduler = factory(config, channel, self.pool, self.stats)
            self.schedulers.append(scheduler)
            # DARP reads the scheduler's per-bank queue occupancy to
            # pick pull-in victims; the other policies ignore the bind.
            refresher.bind_scheduler(scheduler)
        self.mechanism_name = self.schedulers[0].name
        #: (scheduler, channel, refresher, pool_sensitive) tuples,
        #: zipped once — the tick loop runs per simulated cycle and per
        #: channel, so even the three list indexings were measurable.
        #: ``pool_sensitive`` is hoisted so the gate check skips the
        #: write-version comparison for mechanisms the pool can't sway.
        self._units = [
            (s, c, r, s.pool_sensitive)
            for s, c, r in zip(
                self.schedulers, self.channels, self.refreshers
            )
        ]
        self.cycle = 0
        #: The open pool-occupancy run: cycles from ``_run_start`` on
        #: were all sampled at the pool counts ``_close_run`` records.
        self._run_start = 0
        self._close_run(0)
        #: Did the most recent tick issue a command or deliver data?
        #: The next-event run loops only consider skipping after a
        #: quiet (False) tick — see :meth:`next_event_cycle`.
        self.last_tick_active = False
        #: The quiet horizon: the cycle before which :meth:`tick` is a
        #: proven no-op.  Every quiet tick sets it from its one
        #: lookout; an active tick and an accepted :meth:`enqueue`
        #: reset it to -1 (unknown).  The run loop reads it to leap,
        #: and the tick's fast path lets the memory side fast-forward
        #: even on cycles where the loop still steps its driver (the
        #: last cycle of an instruction gap, a rejected new request).
        self._quiet_until = -1
        self._fastfwd = setting("fastfwd")  # the run loop reads it here too
        # Opt-in independent protocol conformance oracle: one shadow
        # verifier per channel, re-checking every SDRAM command the
        # device model accepts (``--oracle`` / ``REPRO_ORACLE=1``).
        self.oracles = []
        if oracle is None:
            oracle = setting("oracle")
        if oracle:
            from repro.dram.oracle import attach_oracles

            attach_oracles(self, strict=True)

    # ------------------------------------------------------------------
    # CPU-facing interface
    # ------------------------------------------------------------------

    def make_access(
        self, type: AccessType, address: int, cycle: int, source: int = 0
    ) -> MemoryAccess:
        """Build an access with device coordinates for ``address``.

        ``source`` is the tenant id in fleet mode (0 for the classic
        single-stream drivers).
        """
        mapping = self.mapping
        decoded = mapping.decode(address)
        subarray_rows = mapping.subarray_rows
        return MemoryAccess(
            type,
            address,
            decoded,
            cycle,
            decoded.row // subarray_rows if subarray_rows else 0,
            source=source,
        )

    def can_accept(self, access: MemoryAccess) -> bool:
        """Room in the pool (and write queue) for this access now?

        Also consults the target scheduler's QoS admission hook
        (:meth:`~repro.controller.base.Scheduler.admits`): a tenant at
        its write-queue quota is rejected exactly like a full pool.
        """
        return self.pool.can_accept(access) and self.schedulers[
            access.channel
        ].admits(access, self.cycle)

    def enqueue(self, access: MemoryAccess, cycle: int) -> EnqueueStatus:
        """Present ``access`` to its channel's scheduler.

        Writes are *posted*: an ACCEPTED write is complete from the
        CPU's perspective (§3.1 line 10).  A FORWARDED read completed
        instantly from the write queue.  REJECTED_FULL means the pool
        or write queue is saturated; the CPU must stall and retry —
        the pipeline-stall coupling of §5.1.
        """
        scheduler = self.schedulers[access.channel]
        if not self.pool.can_accept(access) or not scheduler.admits(
            access, cycle
        ):
            # Pool-full (or quota) rejection mutates nothing, so any
            # established quiet-cycle fixpoint survives it.
            return EnqueueStatus.REJECTED_FULL
        access.arrival = cycle
        self._quiet_until = -1
        return scheduler.enqueue(access, cycle)

    def tick(self) -> List[MemoryAccess]:
        """Advance one memory cycle; returns reads whose data returned.

        A quiet tick (fast-forward on) ends with one lookout,
        :meth:`next_event_cycle`, whose result becomes the quiet
        horizon ``_quiet_until``.  Fast path: until an enqueue disturbs
        that fixpoint, every tick before the horizon would find the
        same frozen state — no command legal, no completion due, the
        schedulers' selection state idempotent — and the same pool
        occupancy, so :meth:`skip_to` only moves the clock.
        """
        cycle = self.cycle
        if cycle < self._quiet_until:
            self.skip_to(cycle + 1)
            self.last_tick_active = False
            return []
        pool = self.pool
        fast = self._fastfwd
        completed: List[MemoryAccess] = []
        active = False
        for scheduler, channel, refresher, pool_sens in self._units:
            if fast and cycle < refresher.idle_until:
                refreshed = False
            else:
                refreshed = refresher.tick(cycle)
            if not refreshed:
                # Frozen: nothing this scheduler can see changed since
                # its stamps were recorded (no own-channel command, no
                # shared write-side pool change for mechanisms that
                # read the pool; own enqueues and read completions
                # clear _gate_cmds directly).
                frozen = scheduler._gate_cmds == channel.cmd_bus_cycles and (
                    not pool_sens
                    or scheduler._gate_pool == pool.write_version
                )
                if frozen and scheduler._gate_until > cycle:
                    pass  # proven no-op schedule pass
                else:
                    scheduler._want_hint = fast
                    scheduler.schedule(cycle)
                    if fast and channel.last_command_cycle != cycle:
                        # No-issue pass: stamp the state it saw and arm
                        # the gate with the pass's own wake hint (or
                        # one next_wakeup scan for mechanisms without
                        # hints).  Until a stamp changes, re-running
                        # schedule() before the wake cycle would see
                        # the identical frozen state and issue nothing.
                        wake = scheduler._pass_wake
                        if wake <= cycle:
                            wake = scheduler.next_wakeup(cycle)
                        scheduler._gate_until = wake
                        scheduler._gate_cmds = channel.cmd_bus_cycles
                        scheduler._gate_pool = pool.write_version
            if channel.last_command_cycle == cycle:
                active = True
            # Same check pop_completions starts with, without the call:
            # on most cycles the heap head is not due yet.
            heap = scheduler._completions
            if heap and heap[0][0] <= cycle:
                done = scheduler.pop_completions(cycle)
                if done:
                    completed.extend(done)
                    active = True
        # Pool occupancy changed this cycle: credit the closed run.
        if (
            pool.read_count != self._run_reads
            or pool.write_count != self._run_writes
        ):
            self._close_run(cycle)
        self.last_tick_active = active
        self.cycle = cycle + 1
        # Feed the dead-cycle fast path and the run loop's leaps.
        if active or not fast:
            self._quiet_until = -1
        else:
            self._quiet_until = self.next_event_cycle(cycle + 1)
        return completed

    # ------------------------------------------------------------------
    # Next-event time skipping
    # ------------------------------------------------------------------

    def next_event_cycle(self, cycle: int) -> int:
        """Earliest cycle any memory-side component can change state.

        The lookout.  Valid only immediately after a quiet tick (every
        queue, bank register and bus frozen), so :meth:`tick` is its
        one caller: it runs once per quiet tick and its result becomes
        the quiet horizon ``_quiet_until``.  A value ``<= cycle`` means
        "no skip": the next tick runs in full.  An armed scheduler gate
        makes the scan a handful of comparisons, so even the 1-3 dead
        cycles between commands of a burst are worth looking for.
        """
        pool = self.pool
        wake = NEVER
        for scheduler, channel, refresher, pool_sens in self._units:
            # A future idle_until (not yet due, or parked) is already a
            # lower bound on the engine's next action.
            candidate = refresher.idle_until
            if candidate <= cycle:
                candidate = refresher.next_wakeup(cycle)
            if candidate < wake:
                wake = candidate
            if (
                scheduler._gate_until > cycle
                and scheduler._gate_cmds == channel.cmd_bus_cycles
                and (
                    not pool_sens
                    or scheduler._gate_pool == pool.write_version
                )
            ):
                # The no-op gate is armed and its stamps still hold, so
                # the scheduler's state is frozen exactly as when the
                # gate was computed — reuse that wake instead of a
                # fresh next_wakeup scan.  _gate_until may come from a
                # completion-blind _pass_wake hint, so fold the heap
                # head in (a min with a next_wakeup-derived gate is
                # idempotent: it already included the head, and while
                # frozen no command can have pushed a new one).
                candidate = scheduler._gate_until
                heap = scheduler._completions
                if heap and heap[0][0] < candidate:
                    candidate = heap[0][0]
            else:
                candidate = scheduler.next_wakeup(cycle)
            if candidate < wake:
                wake = candidate
        if wake - cycle >= 2:
            self.stats.lookout_hits += 1
        else:
            self.stats.lookout_misses += 1
        return wake

    def skip_to(self, target: int) -> None:
        """Jump from the current cycle to ``target`` across dead cycles.

        The caller guarantees (via the quiet horizon a quiet tick
        left) that every skipped cycle would have been a no-op:
        no command legal, no completion due, no enqueue accepted.  Pool
        occupancy therefore stays constant, so the skipped cycles join
        the open occupancy run (see :meth:`_close_run`) and only the
        clock moves.
        """
        k = target - self.cycle
        if k <= 0:
            return
        self.cycle = target

    def _close_run(self, cycle: int) -> None:
        """Credit the open pool-occupancy run and open one at ``cycle``.

        The outstanding-access distributions (Figures 8/11) and the
        saturation metrics (§5.1) sample every cycle, but occupancy
        only changes at an enqueue, a write's column issue and a read's
        completion.  So ``[_run_start, cycle)`` is credited in one
        weighted add when ``tick`` ends on a new occupancy, and before
        :meth:`finalize` exposes the stats.  A
        zero-length run adds no histogram key.
        """
        k = cycle - self._run_start
        pool = self.pool
        if k > 0:
            stats = self.stats
            reads = self._run_reads
            writes = self._run_writes
            stats.outstanding_reads.counts[reads] += k
            stats.outstanding_writes.counts[writes] += k
            if writes >= pool.write_capacity:
                stats.write_queue_full_cycles += k
            if reads + writes >= pool.capacity:
                stats.pool_full_cycles += k
        self._run_start = cycle
        self._run_reads = pool.read_count
        self._run_writes = pool.write_count

    # ------------------------------------------------------------------
    # Run-state inspection
    # ------------------------------------------------------------------

    @property
    def idle(self) -> bool:
        """No queued or in-flight accesses anywhere."""
        pool = self.pool
        return pool.read_count == 0 and pool.write_count == 0

    def pending_accesses(self) -> int:
        return sum(s.pending_accesses() for s in self.schedulers)

    def finalize(self) -> SimStats:
        """Fold channel counters into the stats bundle and return it.

        Also runs the attached protocol oracles' end-of-run refresh
        audit — in strict mode a missed refresh deadline raises here.
        """
        for oracle in self.oracles:
            oracle.finish(self.cycle)
        self._close_run(self.cycle)
        stats = self.stats
        stats.cycles = self.cycle
        # Bus utilisation is a per-channel fraction; average the
        # channels so 100% means every channel's bus always busy.
        n = len(self.channels)
        stats.cmd_bus_cycles = sum(c.cmd_bus_cycles for c in self.channels) / n
        stats.data_bus_cycles = (
            sum(c.data_bus_cycles for c in self.channels) / n
        )
        stats.refreshes = sum(
            rank.refresh_count for c in self.channels for rank in c.ranks
        )
        return stats


__all__ = ["MemorySystem"]
