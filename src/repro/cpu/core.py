"""Out-of-order core limit model (ROB/LSQ occupancy model).

This is the closed-loop CPU that turns scheduler behaviour into
execution time, replacing the paper's full M5 Alpha core with the
three couplings that matter to memory scheduling (DESIGN.md §2):

* **Read latency at the ROB head** — loads issue to the memory system
  out of order as soon as they are fetched, but retire in order; a
  load whose data has not returned blocks retirement, and a full ROB
  then blocks fetch.  Memory-level parallelism is therefore bounded by
  the 196-entry ROB and 32-entry LSQ of Table 3.
* **Posted writes** — trace writes are L2 writebacks; they go straight
  to the controller and never occupy the ROB.
* **Back-pressure** — when the controller rejects an access because
  the pool or the write queue is full, fetch stalls: the paper's
  "write queue saturation may result in CPU pipeline stalls" (§5.1).

The model retires/fetches up to ``width x (CPU clocks per memory
clock)`` instructions per memory cycle (80 for the baseline), so one
simulator tick advances both clock domains consistently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, astuple, dataclass, fields
from typing import Deque, Iterable, List, Optional, Set, Union

from repro.controller.access import AccessType, EnqueueStatus, MemoryAccess
from repro.controller.system import MemorySystem
from repro.sim.engine import run_loop
from repro.timebase import NEVER
from repro.workloads.trace import Row, TraceRecord, trace_rows


@dataclass(frozen=True)
class CoreResult:
    """Outcome of one closed-loop run."""

    mem_cycles: int
    cpu_cycles: int
    instructions: int
    loads: int
    stores: int
    head_block_cycles: int
    store_stall_cycles: int

    @property
    def ipc(self) -> float:
        """Retired instructions per CPU cycle."""
        return self.instructions / self.cpu_cycles if self.cpu_cycles else 0.0

    def to_dict(self) -> dict:
        """JSON-safe snapshot (persistent result cache / workers)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CoreResult":
        """Inverse of :meth:`to_dict` (lossless round-trip)."""
        return cls(**{f.name: int(data[f.name]) for f in fields(cls)})


class OoOCore:
    """Replays a miss trace closed-loop against a memory system."""

    def __init__(
        self,
        system: MemorySystem,
        trace: Iterable[TraceRecord],
    ) -> None:
        self.system = system
        cpu = system.config.cpu
        self.rob_size = cpu.rob_entries
        self.lsq_size = cpu.lsq_entries
        self.budget_per_cycle = (
            cpu.width * system.config.cpu_cycles_per_mem_cycle
        )
        # (gap, op, address, source) rows: a packed Trace's columns, or
        # any other record iterable through a lazy adapter.
        self._trace = trace_rows(trace)
        # Records pulled off the trace iterator so far.  Traces are
        # deterministic (regenerable from benchmark+accesses+seed), so
        # a checkpoint stores this count instead of iterator state and
        # restore fast-forwards a fresh iterator past it.
        self._trace_consumed = 0
        # ROB entries: ints collapse runs of non-memory instructions;
        # MemoryAccess entries are loads awaiting in-order retirement.
        self._rob: Deque[Union[int, MemoryAccess]] = deque()
        self._rob_occupancy = 0
        # The next (gap, op, address, source) row, and how much of its
        # instruction gap is still to fetch.
        self._staged: Optional[Row] = None
        self._gap_left = 0
        self._trace_done = False
        self._inflight_loads = 0
        self._done_loads: Set[int] = set()
        self._pending_store: Optional[MemoryAccess] = None
        #: Did the last fetch have a store or load rejected?
        self._stalled = False
        self.instructions = 0
        self.loads = 0
        self.stores = 0
        self.head_block_cycles = 0
        self.store_stall_cycles = 0

    # ------------------------------------------------------------------
    # Pipeline stages (one call each per memory cycle)
    # ------------------------------------------------------------------

    def _retire(self, budget: int) -> int:
        """Retire up to ``budget`` instructions in order; returns how
        many.  Stops early at an outstanding load or an empty ROB."""
        rob = self._rob
        done = self._done_loads
        left = budget
        while left > 0 and rob:
            head = rob[0]
            if isinstance(head, int):
                if head <= left:
                    left -= head
                    rob.popleft()
                else:
                    rob[0] = head - left
                    left = 0
            elif head.id in done:
                done.discard(head.id)
                rob.popleft()
                left -= 1
            else:
                # In-order retirement blocked on outstanding load data.
                break
        retired = budget - left
        self.instructions += retired
        self._rob_occupancy -= retired
        return retired

    def _append_instructions(self, count: int) -> None:
        rob = self._rob
        if rob and isinstance(rob[-1], int):
            rob[-1] += count
        else:
            rob.append(count)
        self._rob_occupancy += count

    def _fetch(self, cycle: int) -> None:
        budget = self.budget_per_cycle
        system = self.system
        self._stalled = False
        while budget > 0:
            # A store rejected earlier blocks fetch until accepted.
            if self._pending_store is not None:
                status = system.enqueue(self._pending_store, cycle)
                if status is EnqueueStatus.REJECTED_FULL:
                    self.store_stall_cycles += 1
                    self._stalled = True
                    return
                self.stores += 1
                self._pending_store = None
            row = self._staged
            if row is None:
                if self._trace_done:
                    return
                row = next(self._trace, None)
                if row is None:
                    self._trace_done = True
                    return
                self._trace_consumed += 1
                self._staged = row
                self._gap_left = row[0]
            gap_remaining = self._gap_left
            if gap_remaining > 0:
                room = self.rob_size - self._rob_occupancy
                take = min(budget, gap_remaining, room)
                if take <= 0:
                    return
                self._append_instructions(take)
                budget -= take
                self._gap_left = gap_remaining = gap_remaining - take
                if gap_remaining > 0:
                    continue
            # Gap consumed: handle the memory operation itself.
            if row[1] is AccessType.WRITE:
                access = system.make_access(
                    AccessType.WRITE, row[2], cycle, row[3]
                )
                self._staged = None
                self._pending_store = access
                continue
            if self._rob_occupancy >= self.rob_size:
                return
            if self._inflight_loads >= self.lsq_size:
                return
            access = system.make_access(
                AccessType.READ, row[2], cycle, row[3]
            )
            status = system.enqueue(access, cycle)
            if status is EnqueueStatus.REJECTED_FULL:
                self._stalled = True
                return
            if status is EnqueueStatus.FORWARDED:
                self._done_loads.add(access.id)
            else:
                self._inflight_loads += 1
            self._rob.append(access)
            self._rob_occupancy += 1
            self.loads += 1
            budget -= 1
            self._staged = None

    def step(self) -> None:
        """Advance one memory cycle: retire, fetch/issue, tick memory."""
        cycle = self.system.cycle
        budget = self.budget_per_cycle
        if self._retire(budget) < budget and self._rob:
            # Reached a load still waiting on data with budget left.
            self.head_block_cycles += 1
        self._fetch(cycle)
        completed = self.system.tick()
        if completed:
            self._complete(completed)

    def _complete(self, completed: List[MemoryAccess]) -> None:
        """Record loads whose data returned this cycle."""
        for access in completed:
            self._done_loads.add(access.id)
        self._inflight_loads -= len(completed)

    # ------------------------------------------------------------------
    # Frozen spans (see :func:`~repro.sim.engine.run_loop`)
    # ------------------------------------------------------------------

    def _span(self) -> int:
        """How many coming steps are certain to make no accepted
        memory call.

        A step calls into the memory system only to retry a pending
        store or to issue the staged record once its gap is fetched.  A
        rejected retry, or the drain once nothing is left to send (no
        trace, record, store or ROB entry), waits from a quiet tick to
        its quiet horizon: memory is frozen until then, so every retry
        before it is rejected again (0 after an active tick).
        Otherwise, with no store pending and a staged gap over one
        cycle's budget, the next ``(gap - 1) // budget`` steps only
        retire and fetch instructions.  ``NEVER`` means only a load's
        data can unfreeze the core: a staged READ facing a full LSQ; a
        blocked ROB head with less room behind it than the staged gap
        (or none, for a staged READ); and an exhausted trace with loads
        in flight.
        """
        staged = self._staged
        if self._stalled or (
            staged is None
            and self._trace_done
            and self._pending_store is None
            and not self._rob
        ):
            system = self.system
            if system.last_tick_active:
                return 0
            return system._quiet_until - system.cycle
        if self._pending_store is not None:
            return 0
        if staged is None:
            return NEVER if self._trace_done and self._inflight_loads else 0
        gap = self._gap_left
        if gap == 0:
            if staged[1] is AccessType.WRITE:
                return 0
            if self._inflight_loads >= self.lsq_size:
                return NEVER
        rob = self._rob
        if rob:
            head = rob[0]
            if not isinstance(head, int) and head.id not in self._done_loads:
                room = self.rob_size - self._rob_occupancy
                if room < gap or room <= 0:
                    return NEVER
        budget = self.budget_per_cycle
        return (gap - 1) // budget if gap > budget else 0

    def _advance(self, k: int) -> None:
        """Apply ``k`` steps inside a :meth:`_span` in closed form.

        No completion lands within them.  A pending store charges
        ``store_stall_cycles`` each step.  With a load in flight,
        retirement stops at the oldest one, every cycle that reaches it
        with budget left charges ``head_block_cycles``, and fetch fills
        the ROB behind it.  With none in flight everything retires:
        with nothing to fetch (a rejected retry, the drain) the ROB
        just empties; else above one budget it stays level (a budget
        out, a budget in); at or below, the first cycle empties it and
        each cycle then cycles ``min(budget, ROB size)`` instructions.
        The staged gap outlasts a finite span, and a ``NEVER`` span
        fetches no more than the ROB's room.
        """
        budget = self.budget_per_cycle
        if self._pending_store is not None:
            self.store_stall_cycles += k
        fetching = self._staged is not None and self._gap_left
        occupancy = self._rob_occupancy
        in_flight = self._inflight_loads
        if in_flight:
            head = self._rob[0]
            if isinstance(head, int) or head.id in self._done_loads:
                retired = self._retire(k * budget)
            else:
                retired = 0  # the usual wait: a blocked head, no call
            self.head_block_cycles += k - retired // budget
            fetched = 0
            if fetching:
                fetched = min(k * budget, self.rob_size - self._rob_occupancy)
        elif not fetching:
            retired = k * budget
            fetched = 0
        elif occupancy > budget:
            retired = fetched = k * budget
        else:
            level = min(budget, self.rob_size)
            fetched = k * level
            retired = occupancy + fetched - level
        if fetched:
            self._append_instructions(fetched)
            self._gap_left -= fetched
        if not in_flight:
            # Fetched instructions retire too, so they go in first.
            self._retire(retired)

    @property
    def done(self) -> bool:
        return (
            self._trace_done
            and self._staged is None
            and self._pending_store is None
            and not self._rob
            and self.system.idle
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    kind = "ooo"

    def state_dict(self, ctx) -> dict:
        """Pipeline state: ROB contents, staged record, LSQ tracking.

        The ROB interleaves instruction-run ints with load accesses;
        each entry is tagged (``["i", count]`` / ``["a", ref]``) so the
        exact coalescing — which ``_append_instructions`` depends on —
        survives the round trip.  The trace iterator itself is not
        serialized: ``trace_consumed`` counts records pulled so far and
        load fast-forwards a freshly regenerated iterator past them.
        """
        staged = None
        if self._staged is not None:
            gap, op, address, source = self._staged
            staged = [self._gap_left, gap, op.value, address, source]
        return {
            "trace_consumed": self._trace_consumed,
            "rob": [
                ["i", entry] if isinstance(entry, int)
                else ["a", ctx.ref(entry)]
                for entry in self._rob
            ],
            "rob_occupancy": self._rob_occupancy,
            "staged": staged,
            "trace_done": self._trace_done,
            "inflight_loads": self._inflight_loads,
            "done_loads": sorted(self._done_loads),
            "pending_store": ctx.ref_opt(self._pending_store),
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
        self._rob = deque(
            entry if tag == "i" else ctx.get(entry)
            for tag, entry in state["rob"]
        )
        self._rob_occupancy = state["rob_occupancy"]
        if state["staged"] is None:
            self._staged = None
        else:
            gap_remaining, gap, op_value, address, source = state["staged"]
            record = TraceRecord(gap, AccessType(op_value), address, source)
            self._staged = astuple(record)
            self._gap_left = gap_remaining
        self._trace_done = state["trace_done"]
        self._inflight_loads = state["inflight_loads"]
        self._done_loads = set(state["done_loads"])
        self._pending_store = ctx.get_opt(state["pending_store"])
        self.instructions = state["instructions"]
        self.loads = state["loads"]
        self.stores = state["stores"]
        self.head_block_cycles = state["head_block_cycles"]
        self.store_stall_cycles = state["store_stall_cycles"]

    def run(
        self, max_cycles: int = 50_000_000, checkpointer=None
    ) -> CoreResult:
        """Run to completion through :func:`~repro.sim.engine.run_loop`;
        returns the execution-time result and records its totals."""
        mem_cycles = run_loop(self, max_cycles, checkpointer)
        system = self.system
        system.stats.instructions = self.instructions
        system.stats.cpu_stall_cycles = self.head_block_cycles
        return CoreResult(
            mem_cycles=mem_cycles,
            cpu_cycles=mem_cycles * system.config.cpu_cycles_per_mem_cycle,
            instructions=self.instructions,
            loads=self.loads,
            stores=self.stores,
            head_block_cycles=self.head_block_cycles,
            store_stall_cycles=self.store_stall_cycles,
        )


__all__ = ["CoreResult", "OoOCore"]
