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
        #: Memory cycles spent waiting for the next arrival, charged
        #: by :meth:`step` and by :func:`run_loop`'s wait branch as a
        #: core's wait on load data is, so both engine modes count the
        #: same.  Nothing reports it and snapshots omit it.
        self.head_block_cycles = 0

    def step(self) -> None:
        """Stage and enqueue every due request lane by lane, then tick."""
        system = self.system
        cycle = system.cycle
        due = self.next_arrival <= cycle
        if not due and self._waiting():
            self.head_block_cycles += 1
        for source, pending, staged in self._lanes:
            while pending and pending[0][0] <= cycle:
                arrival, type_, address = pending.popleft()
                staged.append(
                    system.make_access(type_, address, arrival, source)
                )
            while staged:
                status = system.enqueue(staged[0], cycle)
                if status is EnqueueStatus.REJECTED_FULL:
                    break
                access = staged.popleft()
                self.issued += 1
                if status is EnqueueStatus.FORWARDED:
                    self.completed.append(access)
        if due:
            self.next_arrival = self._earliest_arrival()
        self.completed.extend(system.tick())

    @property
    def done(self) -> bool:
        return (
            self.next_arrival >= NEVER
            and self.system.idle
            and not any(staged for _, _, staged in self._lanes)
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

    def _waiting(self) -> bool:
        """Nothing staged and the next request still in the future?

        Then, until that arrival, a step stages and enqueues nothing:
        it only ticks the memory system.
        """
        if any(staged for _, _, staged in self._lanes):
            return False
        return self.system.cycle < self.next_arrival < NEVER

    def _complete(self, completed: List[MemoryAccess]) -> None:
        """Record accesses the memory system completed this cycle."""
        self.completed.extend(completed)

    def _progress_marker(self) -> tuple:
        """What a step's progress shows in: enqueues and completions."""
        return (self.issued, len(self.completed))

    def _account_skip(self, cycle: int, k: int) -> None:
        """Replay ``k`` skipped cycles of enqueue retries.

        Each lane with a staged request would have retried it on every
        skipped cycle; the retries are reported to the memory system so
        a front-side-bus wrapper can reproduce its per-retry stat.
        """
        for _, _, staged in self._lanes:
            if staged:
                self.system.note_rejected_enqueues(cycle, k)

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
    request's cycle, ``NEVER`` for a core), ``head_block_cycles``,
    ``_waiting()``, ``_complete()``, ``_progress_marker()`` and
    ``_account_skip()``.  With ``REPRO_FASTFWD=0`` every cycle is one
    ``step()``.  With it on (the default) the loop single steps after
    any cycle where something happened (a request enqueued, a command
    issued, data delivered), because scheduler decisions may depend on
    the fresh state; after a *quiet* cycle every component is frozen at
    a fixpoint, so the loop leaps to the memory system's next event,
    never past the driver's next arrival:

    * **Waiting.**  While ``driver._waiting()`` holds, a step would
      only charge ``head_block_cycles`` and tick the memory system, so
      that is all the loop does, leaping after a quiet tick.
      Completions are applied as they arrive and the predicate is
      tested again; reaching the arrival ends the wait, so the next
      iteration steps and stages the request.
    * **Other stalls** (store or request retry, drain): after two
      quiet ticks with an unchanged ``driver._progress_marker()`` the
      loop leaps and replays the stall counters with
      ``driver._account_skip``.

    Skipped cycles are provably no-ops, so results are byte-identical
    with ``REPRO_FASTFWD=0`` (property-tested).
    """
    fast = fastfwd_enabled()
    system = driver.system
    # Progress markers are only captured once a quiet memory cycle
    # has been seen: on busy cycles (the common case on saturated
    # workloads) the capture would be discarded unused, and the
    # first cycle of a quiet window is cheaper to just step.
    check = False
    waiting = False
    while waiting or not driver.done:
        if (
            checkpointer is not None
            and system.cycle >= checkpointer.next_poll_cycle
        ):
            # Loop-iteration boundaries are the snapshot points:
            # every invariant holds here, so a restored run re-enters
            # the loop in an identical state.
            checkpointer.poll(driver)
        if system.cycle > max_cycles:
            raise SchedulerError(
                f"{type(driver).__name__} run exceeded {max_cycles} "
                f"memory cycles without draining (pool={system.pool.count})"
            )
        if waiting:
            # Exactly what step() does on a waiting cycle.
            driver.head_block_cycles += 1
            completed = system.tick()
            if completed:
                driver._complete(completed)
                waiting = driver._waiting()
            elif not system.last_tick_active:
                cycle = system.cycle
                wake = system.next_event_cycle(cycle)
                if arrival < wake:
                    wake = arrival
                if cycle < wake < NEVER:
                    if wake > max_cycles:
                        wake = max_cycles + 1
                    driver.head_block_cycles += wake - cycle
                    system.skip_to(wake)
            if system.cycle >= arrival:
                waiting = False
            continue
        before = driver._progress_marker() if check else None
        driver.step()
        if not fast:
            continue
        if driver._waiting():
            waiting = True
            check = False
            arrival = driver.next_arrival
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
        wake = system.next_event_cycle(cycle)
        if driver.next_arrival < wake:
            wake = driver.next_arrival
        if wake <= cycle or wake >= NEVER:
            continue
        if wake > max_cycles:
            wake = max_cycles + 1
        driver._account_skip(cycle, wake - cycle)
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
