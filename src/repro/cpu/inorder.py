"""In-order blocking core model.

The paper's §2 premise is that *"with aggressive out of order
execution processors and non-blocking caches, multiple main memory
accesses can be issued and outstanding"* — reordering mechanisms only
have material to work with because the CPU exposes memory-level
parallelism.  :class:`InOrderCore` is the contrast case: a blocking
core that stalls on every load until its data returns, so at most one
read is ever outstanding.  The CPU-model ablation benchmark uses it to
show the reordering win collapsing when MLP disappears.

The trace interface and result type are shared with
:class:`~repro.cpu.core.OoOCore`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.controller.access import AccessType, EnqueueStatus, MemoryAccess
from repro.controller.system import MemorySystem
from repro.cpu.core import CoreResult, run_core
from repro.sim.profile import NEVER
from repro.workloads.trace import TraceRecord


class InOrderCore:
    """Single-outstanding-load blocking core."""

    #: A core has no self-timed event: only memory events end its
    #: stalls (see :func:`~repro.sim.engine.run_loop`).
    next_arrival = NEVER

    def __init__(self, system: MemorySystem, trace: Iterable[TraceRecord]):
        self.system = system
        cpu = system.config.cpu
        # An in-order core still retires multiple instructions per
        # cycle; only memory behaviour is blocking.
        self.budget_per_cycle = (
            cpu.width * system.config.cpu_cycles_per_mem_cycle
        )
        self._trace = iter(trace)
        # Records pulled off the trace iterator so far (checkpointing:
        # traces are regenerable, so restore fast-forwards a fresh
        # iterator past this count instead of serializing the iterator).
        self._trace_consumed = 0
        self._staged = None           # [gap_remaining, record]
        self._trace_done = False
        self._blocked_on: Optional[MemoryAccess] = None
        self._pending_store: Optional[MemoryAccess] = None
        self._done_ids = set()
        self.instructions = 0
        self.loads = 0
        self.stores = 0
        self.head_block_cycles = 0
        self.store_stall_cycles = 0

    def _stage_next(self) -> bool:
        if self._staged is not None:
            return True
        if self._trace_done:
            return False
        record = next(self._trace, None)
        if record is None:
            self._trace_done = True
            return False
        self._trace_consumed += 1
        self._staged = [record.gap, record]
        return True

    def step(self) -> None:
        cycle = self.system.cycle
        system = self.system
        budget = self.budget_per_cycle
        while budget > 0:
            if self._blocked_on is not None:
                if self._blocked_on.id not in self._done_ids:
                    self.head_block_cycles += 1
                    break
                self._done_ids.discard(self._blocked_on.id)
                self._blocked_on = None
                self.instructions += 1
                budget -= 1
                continue
            if self._pending_store is not None:
                status = system.enqueue(self._pending_store, cycle)
                if status is EnqueueStatus.REJECTED_FULL:
                    self.store_stall_cycles += 1
                    break
                self.stores += 1
                self._pending_store = None
                continue
            if not self._stage_next():
                break
            gap_remaining, record = self._staged
            if gap_remaining > 0:
                take = min(budget, gap_remaining)
                self.instructions += take
                budget -= take
                self._staged[0] = gap_remaining - take
                if self._staged[0] > 0:
                    continue
            if record.op is AccessType.WRITE:
                self._pending_store = system.make_access(
                    AccessType.WRITE, record.address, cycle, record.source
                )
                self._staged = None
                continue
            access = system.make_access(
                AccessType.READ, record.address, cycle, record.source
            )
            status = system.enqueue(access, cycle)
            if status is EnqueueStatus.REJECTED_FULL:
                break
            self.loads += 1
            self._staged = None
            if status is EnqueueStatus.FORWARDED:
                self.instructions += 1
                budget -= 1
                continue
            self._blocked_on = access      # stall until data returns
            break
        completed = system.tick()
        if completed:
            self._complete(completed)

    def _complete(self, completed: List[MemoryAccess]) -> None:
        """Record loads whose data returned this cycle."""
        for access in completed:
            self._done_ids.add(access.id)

    def _waiting(self) -> bool:
        """Is the core frozen until its blocking load's data returns?

        Then :meth:`step` only charges ``head_block_cycles`` and ticks
        the memory system (see :func:`~repro.sim.engine.run_loop`).
        """
        blocked = self._blocked_on
        return blocked is not None and blocked.id not in self._done_ids

    @property
    def done(self) -> bool:
        return (
            self._trace_done
            and self._staged is None
            and self._blocked_on is None
            and self._pending_store is None
            and self.system.idle
        )

    def _progress_marker(self) -> tuple:
        """Everything :meth:`step` can change besides stall counters."""
        return (
            self.instructions,
            self.loads,
            self.stores,
            self._blocked_on is None,
            self._pending_store is None,
            self._staged is None,
            len(self._done_ids),
        )

    def _account_skip(self, cycle: int, k: int) -> None:
        """Replay ``k`` frozen stall cycles' worth of counters.

        The blocking core's stalls are mutually exclusive — a blocked
        load suppresses the store retry, which suppresses the load
        retry — matching the ``break`` ladder in :meth:`step`.
        """
        if self._blocked_on is not None:
            self.head_block_cycles += k
        elif self._pending_store is not None:
            self.store_stall_cycles += k
            self.system.note_rejected_enqueues(cycle, k)
        elif self._staged is not None and self._staged[0] == 0:
            self.system.note_rejected_enqueues(cycle, k)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    kind = "inorder"

    def state_dict(self, ctx) -> dict:
        """Blocking-core state (same trace-replay scheme as OoOCore)."""
        staged = None
        if self._staged is not None:
            gap_remaining, record = self._staged
            staged = [
                gap_remaining, record.gap, record.op.value, record.address,
                record.source,
            ]
        return {
            "trace_consumed": self._trace_consumed,
            "staged": staged,
            "trace_done": self._trace_done,
            "blocked_on": ctx.ref_opt(self._blocked_on),
            "pending_store": ctx.ref_opt(self._pending_store),
            "done_ids": sorted(self._done_ids),
            "instructions": self.instructions,
            "loads": self.loads,
            "stores": self.stores,
            "head_block_cycles": self.head_block_cycles,
            "store_stall_cycles": self.store_stall_cycles,
        }

    def load_state_dict(self, state: dict, ctx) -> None:
        from repro.errors import CheckpointMismatchError

        consumed = state["trace_consumed"]
        for _ in range(consumed):
            if next(self._trace, None) is None:
                raise CheckpointMismatchError(
                    f"trace exhausted while replaying {consumed} consumed "
                    "records; the resume run must regenerate the exact "
                    "trace the snapshot was taken from"
                )
        self._trace_consumed = consumed
        if state["staged"] is None:
            self._staged = None
        else:
            gap_remaining, gap, op_value, address, source = state["staged"]
            record = TraceRecord(gap, AccessType(op_value), address, source)
            self._staged = [gap_remaining, record]
        self._trace_done = state["trace_done"]
        self._blocked_on = ctx.get_opt(state["blocked_on"])
        self._pending_store = ctx.get_opt(state["pending_store"])
        self._done_ids = set(state["done_ids"])
        self.instructions = state["instructions"]
        self.loads = state["loads"]
        self.stores = state["stores"]
        self.head_block_cycles = state["head_block_cycles"]
        self.store_stall_cycles = state["store_stall_cycles"]

    def run(
        self, max_cycles: int = 50_000_000, checkpointer=None
    ) -> CoreResult:
        """Run to completion; returns the execution-time result."""
        return run_core(self, max_cycles, checkpointer)


__all__ = ["InOrderCore"]
