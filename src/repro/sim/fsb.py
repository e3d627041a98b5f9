"""Front side bus model (Table 3: 64-bit, 800 MHz DDR).

The baseline machine reaches main memory over an FSB whose peak
bandwidth (12.8 GB/s) exactly matches the two DDR2-800 channels — so
the paper can ignore it.  :class:`FSBAdapter` makes the assumption
checkable: it wraps a :class:`~repro.controller.system.MemorySystem`
with an explicit bus that

* carries each write's 64-byte payload to the controller (the CPU's
  enqueue is rejected while the request bus is busy, which the CPU
  models already treat as a stall-and-retry), and
* carries each read's 64-byte fill back to the CPU, delaying the
  completion the core observes.

A 64-byte line at 16 bytes per memory clock takes 4 cycles each way.
The adapter exposes the same interface the drivers use, so any
driver can run bus-limited by wrapping its memory system.  The FSB
ablation benchmark quantifies the (small, per the paper's implicit
assumption) impact on the Figure 10 result.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from repro.controller.access import AccessType, EnqueueStatus, MemoryAccess
from repro.controller.system import MemorySystem
from repro.errors import ConfigError


class FSBAdapter:
    """A MemorySystem wrapper adding front-side-bus occupancy."""

    def __init__(
        self, system: MemorySystem, transfer_cycles: int = 4
    ) -> None:
        if transfer_cycles <= 0:
            raise ConfigError("transfer_cycles must be positive")
        self.system = system
        self._fastfwd = system._fastfwd  # the run loop reads it here
        self.transfer_cycles = transfer_cycles
        # Split request/response lanes (DDR FSBs are bidirectional;
        # modelling them independently keeps the adapter simple and
        # errs on the permissive side).
        self._request_busy_until = 0
        self._response_busy_until = 0
        self._pending_responses: List[Tuple[int, int, MemoryAccess]] = []
        #: The wrapped system's flag, or a read fill delivered by the
        #: most recent :meth:`tick` (same protocol as MemorySystem).
        self.last_tick_active = False

    # ------------------------------------------------------------------
    # MemorySystem interface
    # ------------------------------------------------------------------

    @property
    def config(self):
        return self.system.config

    @property
    def stats(self):
        return self.system.stats

    @property
    def cycle(self) -> int:
        return self.system.cycle

    @property
    def pool(self):
        return self.system.pool

    def make_access(self, type, address, cycle, source=0) -> MemoryAccess:
        return self.system.make_access(type, address, cycle, source)

    def enqueue(self, access: MemoryAccess, cycle: int) -> EnqueueStatus:
        """Claim the request bus, then hand to the real controller.

        Writes ship their 64B payload (transfer_cycles); read requests
        are address-sized and cost a single bus slot.
        """
        if cycle < self._request_busy_until:
            return EnqueueStatus.REJECTED_FULL
        status = self.system.enqueue(access, cycle)
        if status is EnqueueStatus.REJECTED_FULL:
            return status
        occupancy = (
            self.transfer_cycles
            if access.type is AccessType.WRITE
            else 1
        )
        self._request_busy_until = cycle + occupancy
        return status

    def tick(self) -> List[MemoryAccess]:
        """Advance the memory system; deliver bus-delayed read fills."""
        cycle = self.system.cycle
        for access in self.system.tick():
            start = max(cycle, self._response_busy_until)
            done = start + self.transfer_cycles
            self._response_busy_until = done
            heapq.heappush(
                self._pending_responses, (done, access.id, access)
            )
        delivered = []
        while (
            self._pending_responses
            and self._pending_responses[0][0] <= cycle
        ):
            _, _, access = heapq.heappop(self._pending_responses)
            delivered.append(access)
        self.last_tick_active = self.system.last_tick_active or bool(
            delivered
        )
        return delivered

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def state_dict(self, ctx) -> dict:
        """Bus lane occupancy and the in-flight read fill heap.

        ``last_tick_active`` resets to False on load: run loops read
        it only right after a ``step()``, and a resumed loop always
        steps before consulting it.
        """
        return {
            "request_busy_until": self._request_busy_until,
            "response_busy_until": self._response_busy_until,
            "pending_responses": [
                [done, ident, ctx.ref(access)]
                for done, ident, access in self._pending_responses
            ],
        }

    def load_state_dict(self, state: dict, ctx) -> None:
        self._request_busy_until = state["request_busy_until"]
        self._response_busy_until = state["response_busy_until"]
        self._pending_responses = [
            (done, ident, ctx.get(ref))
            for done, ident, ref in state["pending_responses"]
        ]
        self.last_tick_active = False

    # ------------------------------------------------------------------
    # Next-event time skipping (same protocol as MemorySystem)
    # ------------------------------------------------------------------

    @property
    def _quiet_until(self) -> int:
        """The wrapped system's quiet horizon, cut at the bus's own
        self-timed events: a buffered read fill coming due, or the
        request lane freeing (which can turn a rejected enqueue into
        an accepted one)."""
        cycle = self.system.cycle
        wake = self.system._quiet_until
        if self._pending_responses:
            due = self._pending_responses[0][0]
            if due < wake:
                wake = due
        # The quiet tick ran at ``cycle - 1``: a lane still busy then
        # (busy > cycle - 1) may have been what rejected the enqueue,
        # so its expiry — even when that is ``cycle`` itself — is a
        # wakeup.  A lane already free during the quiet tick cannot
        # unblock anything by staying free.
        busy = self._request_busy_until
        if cycle <= busy < wake:
            wake = busy
        return wake

    def skip_to(self, target: int) -> None:
        self.system.skip_to(target)

    @property
    def idle(self) -> bool:
        return self.system.idle and not self._pending_responses

    def pending_accesses(self) -> int:
        return self.system.pending_accesses() + len(self._pending_responses)

    def finalize(self):
        return self.system.finalize()


__all__ = ["FSBAdapter"]
