"""Online hazard validation (paper §3.4, "Validation").

The paper argues burst scheduling preserves RAW, WAR and WAW ordering
by construction.  :class:`HazardMonitor` turns that argument into a
checked invariant: attached to a :class:`~repro.controller.system.
MemorySystem`, it observes every data transfer as it is scheduled and
raises :class:`~repro.errors.SchedulerError` the moment any mechanism
would violate same-address ordering:

* **RAW** — a read must either be forwarded from the write queue or
  have its data scheduled after every older same-address write;
* **WAR** — a write's data must be scheduled after every older
  same-address read's data;
* **WAW** — same-address writes transfer data in arrival order.

The monitor wraps each channel's ``issue_column`` and keeps the last
scheduled transfer per address, so its cost is one dict lookup per
column access.  It is used throughout the test suite and can be
enabled on any simulation for debugging new mechanisms.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import SchedulerError


class HazardMonitor:
    """Asserts same-address ordering on every scheduled data transfer."""

    def __init__(self, system) -> None:
        self.system = system
        self.checked_transfers = 0
        # address -> (is_read, arrival, id) of the last transfer.
        self._last: Dict[int, Tuple[bool, int, int]] = {}
        # scheduler -> the issue_for we wrapped, for detach().
        self._originals: Dict[int, Tuple[object, object]] = {}
        self._install()

    def _install(self) -> None:
        for scheduler in self.system.schedulers:
            original = scheduler.issue_for

            def wrapped(access, cycle, _original=original):
                kind = _original(access, cycle)
                if kind == "column":
                    self._check(access)
                return kind

            self._originals[id(scheduler)] = (scheduler, original)
            scheduler.issue_for = wrapped

    def detach(self) -> None:
        """Restore each scheduler's unwrapped ``issue_for``; idempotent.

        The monitor is the only component that wraps ``issue_for`` (the
        tracer and the protocol oracle observe the channel's command
        events instead), so detaching never strands another observer's
        wrapper.
        """
        for scheduler, original in self._originals.values():
            scheduler.issue_for = original
        self._originals.clear()

    # ------------------------------------------------------------------

    def _check(self, access) -> None:
        self.checked_transfers += 1
        last = self._last.get(access.address)
        if last is not None:
            last_is_read, last_arrival, last_id = last
            if access.is_write and last_arrival > access.arrival:
                # An older write scheduled after a younger same-address
                # transfer would reorder program-visible state.
                raise SchedulerError(
                    f"hazard: write #{access.id} (arrival "
                    f"{access.arrival}) scheduled after younger "
                    f"same-address access #{last_id} "
                    f"(arrival {last_arrival})"
                )
            if (
                access.is_read
                and not last_is_read
                and last_arrival > access.arrival
            ):
                raise SchedulerError(
                    f"hazard: read #{access.id} sees younger write "
                    f"#{last_id} to {access.address:#x} (RAW violation "
                    f"- it should have been forwarded)"
                )
        self._last[access.address] = (
            access.is_read,
            access.arrival,
            access.id,
        )


class DataOracle:
    """Value-level correctness check for the write-queue forwarding.

    The simulator does not move real data; this oracle makes the data
    path checkable anyway.  It assigns every write a unique token and
    maintains the sequentially consistent per-address state (writes
    apply in arrival order — which §3.4's WAW guarantee promises).
    For every read the oracle computes the token the program must
    observe *at enqueue time*; the caller reports read completions via
    :meth:`check_read` and the oracle verifies that

    * a **forwarded** read observed the newest same-address write that
      was still queued (Figure 4 line 3: "forward the latest write
      data"), and
    * a **memory** read was not required to forward (no same-address
      write was pending when it arrived) — together with the hazard
      monitor's WAR/WAW ordering this pins the value it reads from the
      array to the same token.

    Usage::

        oracle = DataOracle()
        oracle.record_write(write_access)   # before enqueue
        expected = oracle.expected_for_read(read_access)
        ... run ...
        oracle.check_read(read_access, expected)
    """

    def __init__(self) -> None:
        self._next_token = 1
        self._committed: Dict[int, int] = {}
        self._queued: Dict[int, list] = {}
        self._tokens: Dict[int, int] = {}

    def record_write(self, access) -> int:
        """Register a write before it is enqueued; returns its token."""
        token = self._next_token
        self._next_token += 1
        self._tokens[access.id] = token
        self._queued.setdefault(access.address, []).append(token)
        # Sequential consistency: the architectural value advances in
        # arrival order immediately (posted write).
        self._committed[access.address] = token
        return token

    def expected_for_read(self, access) -> Optional[int]:
        """The token a read arriving now must observe (None = cold)."""
        return self._committed.get(access.address)

    def retire_write(self, access) -> None:
        """Drop a write from the queued set once its data transferred."""
        token = self._tokens.pop(access.id, None)
        queued = self._queued.get(access.address)
        if queued and token in queued:
            queued.remove(token)
            if not queued:
                del self._queued[access.address]

    def on_read_enqueued(self, access) -> Optional[int]:
        """Check a read immediately after the system accepted it.

        Must be called while the oracle's queued-write view mirrors
        the controller's (retire writes via :meth:`retire_write` as
        their data transfers).  Returns the token the read observes.
        """
        queued = self._queued.get(access.address)
        should_forward = bool(queued)
        if access.forwarded and not should_forward:
            raise SchedulerError(
                f"read #{access.id} forwarded but no write to "
                f"{access.address:#x} is queued"
            )
        if not access.forwarded and should_forward:
            raise SchedulerError(
                f"read #{access.id} to {access.address:#x} missed the "
                f"queued write it should have forwarded from "
                f"(Figure 4 line 2)"
            )
        if access.forwarded:
            observed = queued[-1]
            expected = self._committed.get(access.address)
            if observed != expected:
                raise SchedulerError(
                    f"read #{access.id} forwarded stale data: observed "
                    f"token {observed}, expected {expected}"
                )
            return observed
        return self._committed.get(access.address)

    def check_read(self, access, expected: Optional[int]) -> None:
        """Post-hoc check: a forwarded read needed a queued write."""
        if access.forwarded and expected is None:
            raise SchedulerError(
                f"read #{access.id} forwarded but no write to "
                f"{access.address:#x} was ever queued"
            )


__all__ = ["DataOracle", "HazardMonitor"]
