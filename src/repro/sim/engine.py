"""Simulation drivers and the run loop.

Two ways to push traffic through a :class:`~repro.controller.system.
MemorySystem`, both run by :func:`run_loop`:

* :class:`OpenLoopDriver` — replays timestamped requests regardless of
  completion (infinite MLP), one lane per source.  Used by unit tests,
  the Figure 1 experiment, the fleet matrix and micro-benchmarks where
  CPU coupling is not wanted.
* :class:`~repro.cpu.core.OoOCore`, the closed-loop CPU model, couples
  execution time to read latency and pool back-pressure; it is what
  the paper's execution-time figures use.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Tuple, Union

from repro.controller.access import AccessType, EnqueueStatus, MemoryAccess
from repro.controller.system import MemorySystem
from repro.errors import SchedulerError, TraceError
from repro.timebase import NEVER

#: (arrival_cycle, AccessType, physical_address[, source]); a request
#: without a source belongs to source 0.
Request = Union[Tuple[int, AccessType, int], Tuple[int, AccessType, int, int]]


class OpenLoopDriver:
    """Replays timestamped request streams into a memory system.

    A request is ``(arrival, type, address)`` or ``(arrival, type,
    address, source)``; the 3-field form is source 0.  Each source gets
    its own request lane.  Requests whose arrival cycle has passed are
    enqueued in order; a rejected request retries every cycle, blocking
    the ones behind it in its lane — the memory system is the only
    source of back-pressure.  Back-pressure against one tenant (pool
    full for it, or a QoS quota rejection) therefore never blocks
    another tenant's requests: with a single queue, the write-quota
    scheduler would starve the *victim* at the driver, defeating the
    mechanism it exists to measure.  Within one cycle lanes are served
    in ascending source order, which keeps the interleaving
    deterministic.  A single stream is the one-lane case.
    """

    def __init__(self, system: MemorySystem, requests: Iterable[Request]):
        self.system = system
        lanes: dict = {}
        for request in sorted(requests, key=lambda r: r[0]):
            # A type that is not READ runs as a write, so a stray
            # ``"read"`` must not get through.
            if not isinstance(request[1], AccessType):
                raise TraceError(
                    f"request {request!r}: type must be an AccessType, "
                    f"got {request[1]!r}"
                )
            source = request[3] if len(request) > 3 else 0
            lanes.setdefault(source, deque()).append(request[:3])
        #: ``(source, pending requests, staged accesses)`` per lane.
        self._lanes = [
            (source, lanes[source], deque()) for source in sorted(lanes)
        ]
        #: Arrival cycle of the earliest undelivered request.
        self.next_arrival = self._earliest_arrival()
        self.completed: List[MemoryAccess] = []
        self.issued = 0
        #: Did the last step leave a rejected request staged?
        self._stalled = False

    def step(self) -> None:
        """Stage and enqueue every due request lane by lane, then tick."""
        system = self.system
        cycle = system.cycle
        due = self.next_arrival <= cycle
        stalled = False
        for source, pending, staged in self._lanes:
            while pending and pending[0][0] <= cycle:
                arrival, type_, address = pending.popleft()
                staged.append(
                    system.make_access(type_, address, arrival, source)
                )
            while staged:
                status = system.enqueue(staged[0], cycle)
                if status is EnqueueStatus.REJECTED_FULL:
                    stalled = True
                    break
                access = staged.popleft()
                self.issued += 1
                if status is EnqueueStatus.FORWARDED:
                    self.completed.append(access)
        self._stalled = stalled
        if due:
            self.next_arrival = self._earliest_arrival()
        self.completed.extend(system.tick())

    @property
    def done(self) -> bool:
        return (
            self.next_arrival >= NEVER
            and not self._stalled
            and self.system.idle
        )

    # ------------------------------------------------------------------
    # Run-loop hooks (see :func:`run_loop`)
    # ------------------------------------------------------------------

    def _earliest_arrival(self) -> int:
        wake = NEVER
        for _, pending, _ in self._lanes:
            if pending and pending[0][0] < wake:
                wake = pending[0][0]
        return wake

    def _span(self) -> int:
        """How many coming steps are certain to make no accepted
        memory call.

        With nothing staged it is the cycles to the next arrival: until
        then a step stages and enqueues nothing, it only ticks the
        memory system.  A rejected request, or a drained stream, waits
        from a quiet tick to its quiet horizon (or the next arrival, if
        sooner): memory is frozen until then, so every retry before it
        is rejected again.  0 after an active tick.
        """
        system = self.system
        arrival = self.next_arrival
        if self._stalled or arrival >= NEVER:
            if system.last_tick_active:
                return 0
            wake = system._quiet_until
            if arrival < wake:
                wake = arrival
            return wake - system.cycle
        return arrival - system.cycle

    def _advance(self, k: int) -> None:
        """Apply ``k`` steps inside a :meth:`_span`: each only waits or
        has a request rejected, which changes nothing a driver
        records."""

    def _complete(self, completed: List[MemoryAccess]) -> None:
        """Record accesses the memory system completed this cycle."""
        self.completed.extend(completed)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    kind = "open_loop"

    def state_dict(self, ctx) -> dict:
        """Driver-side state: each lane's undelivered requests and
        staged accesses.

        ``completed`` is not serialized: the run loop only compares its
        length across an iteration and nothing feeds it into SimStats,
        so a resumed driver restarts it empty (it then holds only the
        post-resume completions).
        """
        return {
            "lanes": [
                [
                    source,
                    [
                        [arrival, type_.value, address]
                        for arrival, type_, address in pending
                    ],
                    [ctx.ref(a) for a in staged],
                ]
                for source, pending, staged in self._lanes
            ],
            "issued": self.issued,
        }

    def load_state_dict(self, state: dict, ctx) -> None:
        self._lanes = [
            (
                source,
                deque(
                    (arrival, AccessType(value), address)
                    for arrival, value, address in pending
                ),
                deque(ctx.get(r) for r in staged),
            )
            for source, pending, staged in state["lanes"]
        ]
        self.next_arrival = self._earliest_arrival()
        self._stalled = any(staged for _, _, staged in self._lanes)
        self.completed = []
        self.issued = state["issued"]

    def run(self, max_cycles: int = 10_000_000, checkpointer=None) -> int:
        """Run to drain; returns the final cycle count."""
        return run_loop(self, max_cycles, checkpointer)


def run_loop(driver, max_cycles: int, checkpointer=None) -> int:
    """Run ``driver`` to completion; returns the final memory cycle.

    The one run loop, for :class:`OpenLoopDriver` and
    :class:`~repro.cpu.core.OoOCore`.  A driver offers ``step()``,
    ``done``, ``_span()``, ``_advance()`` and ``_complete()``.  The
    engine mode is the system's, fixed when it was built: with
    ``REPRO_FASTFWD=0`` every cycle is one ``step()``.  With it on (the
    default) the loop steps the driver unless ``driver._span()`` proves
    it frozen: the count of coming steps certain to make no accepted
    call into the memory system (``NEVER`` when only a load's data can
    end the freeze).  That holds while a core fetches an instruction
    gap or waits on a load, while a stream waits for its next arrival,
    and, from a quiet tick (``system.last_tick_active`` false) to the
    quiet horizon it left (``system._quiet_until``), while a retry is
    rejected or the driver drains: memory is frozen until the horizon,
    so a rejected call is rejected again at every cycle before it.

    For the span memory runs alone: it ticks, and after a quiet tick
    leaps to the horizon, never past the span.  Then
    ``driver._advance(k)`` applies the ``k`` skipped steps in one
    closed form.  A completion ends the window early (the steps up to
    and including its cycle are applied before ``_complete()``), as
    does reaching the checkpointer's next poll or ``max_cycles``, so
    the driver is always settled where the loop polls, raises or ends.
    Skipped steps are provably no-ops past what ``_advance`` applies,
    so results are byte-identical with ``REPRO_FASTFWD=0``
    (property-tested).
    """
    system = driver.system
    fast = system._fastfwd
    tick = system.tick
    while not driver.done:
        cycle = system.cycle
        if checkpointer is not None and cycle >= checkpointer.next_poll_cycle:
            # Loop-iteration boundaries are the snapshot points:
            # every invariant holds here, so a restored run re-enters
            # the loop in an identical state.
            checkpointer.poll(driver)
        if cycle > max_cycles:
            raise SchedulerError(
                f"{type(driver).__name__} run exceeded {max_cycles} "
                f"memory cycles without draining (pool={system.pool.count})"
            )
        span = driver._span() if fast else 0
        if span <= 0:
            driver.step()
            continue
        # Frozen driver: memory runs alone until the span, the next
        # poll, the cycle limit or a completion ends the window.
        end = cycle + span
        if end > max_cycles:
            end = max_cycles + 1
        if checkpointer is not None and checkpointer.next_poll_cycle < end:
            end = checkpointer.next_poll_cycle
        now = cycle
        while True:
            completed = tick()
            now += 1
            if completed:
                break
            if not system.last_tick_active:
                wake = system._quiet_until
                if wake > end:
                    wake = end
                if wake > now:
                    system.skip_to(wake)
                    now = wake
            if now >= end:
                break
        driver._advance(now - cycle)
        if completed:
            driver._complete(completed)
    system.finalize()
    return system.cycle


def run_requests(
    system: MemorySystem,
    requests: Iterable[Request],
    max_cycles: int = 10_000_000,
) -> int:
    """Convenience wrapper: drive ``requests`` open loop to drain."""
    return OpenLoopDriver(system, requests).run(max_cycles)


def run_requests_verified(
    system: MemorySystem,
    requests: Iterable[Request],
    max_cycles: int = 10_000_000,
    strict: bool = True,
) -> Tuple[int, List["object"]]:
    """Drive ``requests`` with the protocol oracle watching every command.

    Attaches one independent :class:`~repro.dram.oracle.ProtocolOracle`
    per channel before running; in strict mode any protocol violation
    raises mid-run with a schedule excerpt, otherwise the violations
    accumulate on the returned oracles.  Returns ``(cycles, oracles)``.
    """
    from repro.dram.oracle import attach_oracles

    oracles = attach_oracles(system, strict=strict)
    cycles = OpenLoopDriver(system, requests).run(max_cycles)
    return cycles, oracles


def run_requests_resumed(
    system: MemorySystem,
    requests: Iterable[Request],
    checkpoint,
    max_cycles: int = 10_000_000,
    checkpointer=None,
) -> int:
    """Resume an open-loop run from a snapshot file and drain it.

    ``system`` must be constructed exactly as for the original run —
    same config, mechanism, and observer topology.  Observers attached
    to the system (tracer, oracle, HazardMonitor) keep watching across
    the load: restore is in-place, so channel listener lists and
    wrapped scheduler methods survive, and attached oracles have their
    shadow state refilled from the snapshot.  ``requests`` must be the
    same stream the original run was given; requests the snapshot
    already consumed are dropped during load.
    """
    from repro.checkpoint import load_checkpoint

    driver = OpenLoopDriver(system, requests)
    load_checkpoint(checkpoint, driver)
    return driver.run(max_cycles, checkpointer=checkpointer)


__all__ = [
    "OpenLoopDriver",
    "Request",
    "run_loop",
    "run_requests",
    "run_requests_resumed",
    "run_requests_verified",
]
