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
from repro.sim.profile import NEVER, fastfwd_enabled

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
        """Cycles until the next arrival, when nothing is staged.

        Until then a step stages and enqueues nothing: it only ticks
        the memory system (0 when something is staged or nothing is
        left to arrive).
        """
        arrival = self.next_arrival
        if self._stalled or arrival >= NEVER:
            return 0
        return arrival - self.system.cycle

    def _advance(self, k: int) -> None:
        """Apply ``k`` steps inside a :meth:`_span`, or ``k`` skipped
        retries of a rejected request: each only waits, which changes
        nothing a driver records."""

    _account_skip = _advance

    def _complete(self, completed: List[MemoryAccess]) -> None:
        """Record accesses the memory system completed this cycle."""
        self.completed.extend(completed)

    def _progress_marker(self) -> tuple:
        """What a step's progress shows in: enqueues and completions."""
        return (self.issued, len(self.completed))

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
    :class:`~repro.cpu.core.OoOCore`.
    A driver offers ``step()``, ``done``, ``next_arrival`` (its next
    request's cycle, ``NEVER`` for a core), ``_span()``,
    ``_advance()``, ``_complete()``, ``_progress_marker()`` and
    ``_account_skip()``.  With ``REPRO_FASTFWD=0`` every cycle is one
    ``step()``.  With it on (the default) the loop single steps after
    any cycle where something happened (a request enqueued, a command
    issued, data delivered), because scheduler decisions may depend on
    the fresh state; after a *quiet* cycle every component is frozen at
    a fixpoint, so the loop leaps to the quiet horizon that tick left
    (``system._quiet_until``, the result of its one lookout):

    * **Frozen driver.**  ``driver._span()`` counts the coming steps
      certain to make no call into the memory system (``NEVER`` when
      only a load's data can end the freeze).  For that many cycles
      memory runs alone: it ticks, and leaps after a quiet tick, never
      past the span.  Then ``driver._advance(k)`` applies the ``k``
      skipped steps in one closed form.  A completion ends the window
      early (the steps up to and including its cycle are applied
      before ``_complete()``), as does reaching the checkpointer's next
      poll or ``max_cycles``, so the driver is always settled where
      the loop polls, raises or ends.
    * **Other stalls** (store or request retry, drain): after two
      quiet ticks with an unchanged ``driver._progress_marker()`` the
      loop leaps and ``driver._account_skip(k)`` replays the ``k``
      skipped cycles' stall counters.  A retry is a memory call whose
      outcome any memory event may change (a write's column issue
      frees its slot, the FSB's request lane frees on its own timer),
      so it cannot be counted ahead like a span: it is observed
      frozen.

    Skipped cycles are provably no-ops, so results are byte-identical
    with ``REPRO_FASTFWD=0`` (property-tested).
    """
    fast = fastfwd_enabled()
    system = driver.system
    tick = system.tick
    # Progress markers are only captured once a quiet memory cycle
    # has been seen: on busy cycles (the common case on saturated
    # workloads) the capture would be discarded unused, and the
    # first cycle of a quiet window is cheaper to just step.
    check = False
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
        if span > 0:
            # Frozen driver: memory runs alone until the span, the next
            # poll, the cycle limit or a completion ends the window.
            check = False
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
            continue
        before = driver._progress_marker() if check else None
        driver.step()
        if not fast:
            continue
        if system.last_tick_active:
            check = False
            continue
        if not check:
            check = True
            continue
        if driver._progress_marker() != before:
            continue
        cycle = system.cycle
        wake = system._quiet_until
        if driver.next_arrival < wake:
            wake = driver.next_arrival
        if wake <= cycle or wake >= NEVER:
            continue
        if wake > max_cycles:
            wake = max_cycles + 1
        driver._account_skip(wake - cycle)
        system.skip_to(wake)
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
