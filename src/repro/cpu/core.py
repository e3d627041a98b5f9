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
from repro.sim.profile import NEVER
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

    #: A core has no self-timed event: only memory events end its
    #: stalls (see :func:`~repro.sim.engine.run_loop`).
    next_arrival = NEVER

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
        self.instructions = 0
        self.loads = 0
        self.stores = 0
        self.head_block_cycles = 0
        self.store_stall_cycles = 0

    # ------------------------------------------------------------------
    # Pipeline stages (one call each per memory cycle)
    # ------------------------------------------------------------------

    def _retire(self) -> None:
        budget = self.budget_per_cycle
        rob = self._rob
        while budget > 0 and rob:
            head = rob[0]
            if isinstance(head, int):
                take = head if head <= budget else budget
                budget -= take
                self.instructions += take
                self._rob_occupancy -= take
                if take == head:
                    rob.popleft()
                else:
                    rob[0] = head - take
                continue
            if head.id in self._done_loads:
                self._done_loads.discard(head.id)
                rob.popleft()
                self._rob_occupancy -= 1
                self.instructions += 1
                budget -= 1
                continue
            # In-order retirement blocked on outstanding load data.
            self.head_block_cycles += 1
            return

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
        while budget > 0:
            # A store rejected earlier blocks fetch until accepted.
            if self._pending_store is not None:
                status = system.enqueue(self._pending_store, cycle)
                if status is EnqueueStatus.REJECTED_FULL:
                    self.store_stall_cycles += 1
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
        self._retire()
        self._fetch(cycle)
        completed = self.system.tick()
        if completed:
            self._complete(completed)

    def _complete(self, completed: List[MemoryAccess]) -> None:
        """Record loads whose data returned this cycle."""
        for access in completed:
            self._done_loads.add(access.id)
        self._inflight_loads -= len(completed)

    def _waiting(self) -> bool:
        """Is the core frozen until a load's data returns?

        True when the ROB head is an outstanding load (retire blocks)
        and fetch is blocked by capacity alone: a staged instruction
        run or READ facing a full ROB, a staged READ facing a full LSQ,
        or an exhausted trace.  On such a cycle :meth:`step` only
        charges ``head_block_cycles`` and ticks the memory system — it
        makes no call into the memory system that could change it.  A
        pending store or a staged WRITE with its gap consumed is not a
        wait: fetch would retry ``enqueue`` or call ``make_access``.
        """
        rob = self._rob
        if not rob or self._pending_store is not None:
            return False
        head = rob[0]
        if isinstance(head, int) or head.id in self._done_loads:
            return False
        staged = self._staged
        if staged is None:
            return self._trace_done
        full = self._rob_occupancy >= self.rob_size
        if self._gap_left > 0:
            return full
        if staged[1] is AccessType.WRITE:
            return False
        return full or self._inflight_loads >= self.lsq_size

    @property
    def done(self) -> bool:
        return (
            self._trace_done
            and self._staged is None
            and self._pending_store is None
            and not self._rob
            and self.system.idle
        )

    def _progress_marker(self) -> tuple:
        """Everything the pipeline can change besides stall counters.

        Two equal markers around a quiet memory tick mean the whole
        core is frozen: nothing retired, fetched, staged or issued.
        """
        return (
            self.instructions,
            self.loads,
            self.stores,
            self._rob_occupancy,
            self._inflight_loads,
            len(self._done_loads),
            self._staged is None,
            self._pending_store is None,
        )

    def _account_skip(self, cycle: int, k: int) -> None:
        """Replay ``k`` frozen stall cycles' worth of counters.

        Mirrors what :meth:`step` does on a cycle where nothing can
        progress: a blocked load at the ROB head charges
        ``head_block_cycles``; a rejected store charges
        ``store_stall_cycles`` and retries its enqueue every cycle; a
        rejected load retries without a counter.  The retry attempts
        are reported to the memory system so a front-side-bus wrapper
        can reproduce its per-attempt stall statistic.
        """
        rob = self._rob
        if rob and not isinstance(rob[0], int):
            self.head_block_cycles += k
        if self._pending_store is not None:
            self.store_stall_cycles += k
            self.system.note_rejected_enqueues(cycle, k)
        elif (
            self._staged is not None
            and self._gap_left == 0
            and self._staged[1] is AccessType.READ
            and self._rob_occupancy < self.rob_size
            and self._inflight_loads < self.lsq_size
        ):
            self.system.note_rejected_enqueues(cycle, k)

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
