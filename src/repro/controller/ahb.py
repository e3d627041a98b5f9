"""Adaptive history-based scheduling (Hur & Lin, MICRO 2004).

One of the related mechanisms the paper surveys in §2.2: *"the
adaptive history-based memory scheduler tracks the access pattern of
recently scheduled accesses and selects memory accesses matching the
program's mixture of reads and writes"*.

This is a faithful simplification of that idea on our substrate:

* an exponentially weighted estimate of the *arriving* read/write mix
  tracks what the program currently produces;
* a short history of *scheduled* accesses tracks what the controller
  recently issued;
* each bank's arbiter picks the candidate whose type moves the issued
  mix toward the arriving mix (row-hit-first within the preferred
  type, oldest-first fallback to the other type).

Registered as the ``AHB`` extension mechanism — not part of the
paper's Table 4 comparison, but a useful extra baseline from the same
literature.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.controller.access import MemoryAccess
from repro.controller.base import COLUMN, Scheduler

BankKey = Tuple[int, int]


class AHBScheduler(Scheduler):
    """Match the issued read/write mix to the arriving mix."""

    name = "AHB"

    def __init__(
        self,
        config,
        channel,
        pool,
        stats,
        history_length: int = 16,
        arrival_decay: float = 0.05,
    ) -> None:
        super().__init__(config, channel, pool, stats)
        self._read_queues: Dict[BankKey, List[MemoryAccess]] = {
            (rank, bank): []
            for rank, bank, _ in channel.iter_banks()
        }
        self._write_queues: Dict[BankKey, List[MemoryAccess]] = {
            key: [] for key in self._read_queues
        }
        self._ongoing: Dict[BankKey, Optional[MemoryAccess]] = {
            key: None for key in self._read_queues
        }
        self._pending = 0
        # Program mix estimate (fraction of reads among arrivals).
        self.arrival_read_frac = 0.7
        self._arrival_decay = arrival_decay
        # Recently scheduled access types: True = read.
        self._history: Deque[bool] = deque(maxlen=history_length)

    # ------------------------------------------------------------------

    def _enqueue_read(self, access: MemoryAccess, cycle: int) -> None:
        self._read_queues[access.bank_key()].append(access)
        self._pending += 1
        self._observe_arrival(is_read=True)

    def _enqueue_write(self, access: MemoryAccess, cycle: int) -> None:
        self._write_queues[access.bank_key()].append(access)
        self._pending += 1
        self._observe_arrival(is_read=False)

    def _observe_arrival(self, is_read: bool) -> None:
        sample = 1.0 if is_read else 0.0
        self.arrival_read_frac += self._arrival_decay * (
            sample - self.arrival_read_frac
        )

    def pending_accesses(self) -> int:
        return self._pending

    def _mech_state(self, ctx) -> dict:
        # ``arrival_read_frac`` is a float EWMA; Python's json round
        # trips floats losslessly (shortest-repr), so no quantisation.
        return {
            "read_queues": [
                [list(key), [ctx.ref(a) for a in queue]]
                for key, queue in self._read_queues.items()
            ],
            "write_queues": [
                [list(key), [ctx.ref(a) for a in queue]]
                for key, queue in self._write_queues.items()
            ],
            "ongoing": [
                [list(key), ctx.ref_opt(access)]
                for key, access in self._ongoing.items()
            ],
            "pending": self._pending,
            "arrival_read_frac": self.arrival_read_frac,
            "history": list(self._history),
        }

    def _load_mech_state(self, state: dict, ctx) -> None:
        for key, refs in state["read_queues"]:
            self._read_queues[tuple(key)] = [ctx.get(r) for r in refs]
        for key, refs in state["write_queues"]:
            self._write_queues[tuple(key)] = [ctx.get(r) for r in refs]
        for key, ref in state["ongoing"]:
            self._ongoing[tuple(key)] = ctx.get_opt(ref)
        self._pending = state["pending"]
        self.arrival_read_frac = state["arrival_read_frac"]
        self._history = deque(state["history"], maxlen=self._history.maxlen)

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    def _issued_read_frac(self) -> float:
        if not self._history:
            return self.arrival_read_frac
        return sum(self._history) / len(self._history)

    def _prefer_reads(self) -> bool:
        """Issue a read next iff reads are under-represented so far."""
        return self._issued_read_frac() <= self.arrival_read_frac

    def _select(self, key: BankKey) -> Optional[MemoryAccess]:
        reads = self._read_queues[key]
        writes = [
            w
            for w in self._write_queues[key]
            if not self.write_is_war_blocked(w)
        ]
        rank, bank = key
        open_row = self.channel.ranks[rank].banks[bank].open_row

        def pick(queue):
            if not queue:
                return None
            if open_row is not None:
                for access in queue:
                    if access.row == open_row:
                        return access
            return queue[0]

        first, second = (reads, writes) if self._prefer_reads() else (
            writes,
            reads,
        )
        return pick(first) or pick(second)

    def schedule(self, cycle: int) -> None:
        for key, ongoing in self._ongoing.items():
            if ongoing is None:
                self._ongoing[key] = self._select(key)
        candidates = [
            (key, access)
            for key, access in self._ongoing.items()
            if access is not None
        ]
        candidates.sort(key=lambda item: item[1].arrival)
        for key, access in candidates:
            if not self.can_issue_access(access, cycle):
                continue
            kind = self.issue_for(access, cycle)
            if kind is COLUMN:
                self._history.append(access.is_read)
                self._ongoing[key] = None
                self._pending -= 1
                queue = (
                    self._read_queues if access.is_read else self._write_queues
                )[key]
                queue.remove(access)
            return


__all__ = ["AHBScheduler"]
