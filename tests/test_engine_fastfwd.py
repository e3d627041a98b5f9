"""Equivalence of the next-event engine and the sequential loop.

The fast-forward run loops (``REPRO_FASTFWD=1``, the default) leap
over cycles they can prove are no-ops; ``REPRO_FASTFWD=0`` preserves
the original strictly sequential loop.  The two must be *byte
identical*: same ``SimStats`` snapshot, same SDRAM command trace
cycle for cycle, same CPU result — on every mechanism, with the
protocol oracle watching, under both quiet and aggressive refresh.

These tests are the correctness bar of the next-event rewrite
(DESIGN.md §9): any scheduling decision that could depend on a
skipped cycle shows up here as a trace or histogram mismatch.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.access import AccessType
from repro.controller.registry import extension_names, mechanism_names
from repro.controller.system import MemorySystem
from repro.cpu.core import OoOCore
from repro.dram.timing import DDR2_800, DDR5_4800
from repro.experiments.generations import generation_config
from repro.mapping.base import DecodedAddress
from repro.sim.config import CPUConfig, baseline_config
from repro.sim.engine import OpenLoopDriver, run_requests
from repro.sim.fsb import FSBAdapter
from repro.timebase import NEVER
from repro.workloads.spec2000 import make_benchmark_trace
from tests.conftest import make_request_stream

ALL_MECHANISMS = list(mechanism_names()) + list(extension_names())

QUIET = replace(DDR2_800, tREFI=None, tRFC=0)
#: Aggressive refresh so skip windows constantly collide with the
#: refresh engine's due times, precharge sweeps and recovery.
FAST_REFRESH = replace(DDR2_800, tREFI=150, tRFC=20)


@contextmanager
def fastfwd(enabled: bool):
    """Pin REPRO_FASTFWD for the duration of one simulation run."""
    saved = os.environ.get("REPRO_FASTFWD")
    os.environ["REPRO_FASTFWD"] = "1" if enabled else "0"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_FASTFWD"]
        else:
            os.environ["REPRO_FASTFWD"] = saved


def _config(timing):
    return baseline_config(
        timing=timing,
        channels=1,
        ranks=2,
        banks=2,
        rows=8,
        pool_size=32,
        write_queue_size=8,
        threshold=6,
    )


def _encode(config, workload):
    donor = MemorySystem(config, "BkInOrder")
    requests = []
    for cycle, is_write, rank, bank, row, column in workload:
        address = donor.mapping.encode(
            DecodedAddress(0, rank, bank, row, column)
        )
        op = AccessType.WRITE if is_write else AccessType.READ
        requests.append((cycle, op, address))
    return requests


def _run_open_loop(mechanism, config, requests, fast):
    """One oracle-verified open-loop run; returns (stats, commands)."""
    with fastfwd(fast):
        system = MemorySystem(config, mechanism, oracle=True)
        commands = []
        for channel in system.channels:
            channel.add_command_listener(
                lambda event, log=commands: log.append(repr(event))
            )
        run_requests(system, list(requests))
    return system.stats.to_dict(), commands


@st.composite
def workloads(draw):
    """Bursty timestamped requests over a tiny address space.

    Long arrival gaps (up to 400 cycles) force genuine idle windows
    for the engine to leap over; dense stretches force the fall-back
    to single stepping under scheduler contention.
    """
    count = draw(st.integers(min_value=4, max_value=40))
    requests = []
    cycle = 0
    for _ in range(count):
        cycle += draw(
            st.one_of(
                st.integers(min_value=0, max_value=6),
                st.integers(min_value=50, max_value=400),
            )
        )
        requests.append(
            (
                cycle,
                draw(st.booleans()),
                draw(st.integers(0, 1)),
                draw(st.integers(0, 1)),
                draw(st.integers(0, 3)),
                draw(st.integers(0, 3)),
            )
        )
    return requests


@settings(deadline=None)
@given(workload=workloads(), refresh=st.booleans())
def test_fastfwd_open_loop_identical_across_mechanisms(workload, refresh):
    """Fast and sequential runs agree on stats and command traces."""
    config = _config(FAST_REFRESH if refresh else QUIET)
    requests = _encode(config, workload)
    for mechanism in ALL_MECHANISMS:
        slow = _run_open_loop(mechanism, config, requests, fast=False)
        fast = _run_open_loop(mechanism, config, requests, fast=True)
        assert fast == slow, f"{mechanism} diverged under fast-forward"


#: Machines for the closed-loop A/B: the DDR2-800 baseline (80
#: instructions per memory cycle), DDR5-4800 (16, so instruction gaps
#: span many frozen cycles), and a core with a 1-entry LSQ and a ROB
#: smaller than one cycle's budget.
CLOSED_LOOP_CONFIGS = {
    "ddr2": baseline_config(),
    "ddr5": generation_config(DDR5_4800),
    "small_core": baseline_config(
        cpu=CPUConfig(lsq_entries=1, rob_entries=12)
    ),
}


def _run_closed_loop(mechanism, core_cls, with_fsb, fast, config="ddr2"):
    with fastfwd(fast):
        system = MemorySystem(
            CLOSED_LOOP_CONFIGS[config], mechanism, oracle=True
        )
        commands = []
        for channel in system.channels:
            channel.add_command_listener(
                lambda event, log=commands: log.append(repr(event))
            )
        trace = make_benchmark_trace("swim", accesses=900, seed=5)
        target = FSBAdapter(system) if with_fsb else system
        result = core_cls(target, trace).run()
    return result.to_dict(), system.stats.to_dict(), commands


@pytest.mark.parametrize("mechanism", ["Burst_TH", "BkInOrder", "Intel"])
@pytest.mark.parametrize("core_cls", [OoOCore])
@pytest.mark.parametrize("with_fsb", [False, True])
def test_fastfwd_closed_loop_identical(mechanism, core_cls, with_fsb):
    """CPU-coupled runs (optionally bus-limited) are byte-identical."""
    slow = _run_closed_loop(mechanism, core_cls, with_fsb, False)
    fast = _run_closed_loop(mechanism, core_cls, with_fsb, True)
    assert fast == slow


@pytest.mark.parametrize(
    "config, mechanism",
    [
        ("ddr5", "Burst_BPW"),
        ("ddr5", "Burst_TH"),
        ("small_core", "Burst_TH"),
        ("small_core", "Intel"),
    ],
)
@pytest.mark.parametrize("with_fsb", [False, True])
def test_fastfwd_closed_loop_identical_across_machines(
    config, mechanism, with_fsb
):
    """The same A/B where frozen spans are long (DDR5) or the ROB and
    LSQ bind on every few accesses (small core)."""
    slow = _run_closed_loop(mechanism, OoOCore, with_fsb, False, config)
    fast = _run_closed_loop(mechanism, OoOCore, with_fsb, True, config)
    assert fast == slow


@pytest.mark.parametrize("lanes", [1, 2])
def test_fastfwd_open_loop_through_fsb_identical(quiet_config, lanes):
    """A bus-limited open-loop stream, whose enqueues retry while the
    request lane is busy, is identical in both modes, per lane."""
    config = replace(
        quiet_config, pool_size=8, write_queue_size=4, threshold=2
    )
    requests = make_request_stream(config, 300, seed=3, gap=1)
    if lanes > 1:
        requests = [r + (i % lanes,) for i, r in enumerate(requests)]
    runs = []
    for fast in (False, True):
        with fastfwd(fast):
            system = MemorySystem(config, "Burst_TH")
            fsb = FSBAdapter(system, transfer_cycles=16)
            OpenLoopDriver(fsb, requests).run()
        runs.append(system.stats.to_dict())
    # The bus binds: the stream takes longer behind it than without.
    unbussed = run_requests(MemorySystem(config, "Burst_TH"), requests)
    assert runs[0]["cycles"] > unbussed
    assert runs[1] == runs[0]


@pytest.mark.parametrize("target", ["closed", "closed_fsb", "open_sparse"])
def test_one_lookout_per_cycle(monkeypatch, target):
    """No simulated cycle runs the lookout twice.

    A quiet tick runs ``next_event_cycle`` once and leaves its result
    as the quiet horizon; the run loop (and the FSB adapter) read that
    horizon instead of asking again for the same cycle.
    """
    monkeypatch.setenv("REPRO_FASTFWD", "1")
    cycles = []
    lookout = MemorySystem.next_event_cycle

    def counting_lookout(system, cycle):
        cycles.append(system.cycle)
        return lookout(system, cycle)

    monkeypatch.setattr(MemorySystem, "next_event_cycle", counting_lookout)
    system = MemorySystem(baseline_config(), "Burst_TH")
    if target == "open_sparse":
        requests = make_request_stream(system.config, 200, seed=4, gap=300)
        OpenLoopDriver(system, requests).run()
    else:
        trace = make_benchmark_trace("swim", accesses=900, seed=5)
        memory = FSBAdapter(system) if target == "closed_fsb" else system
        OoOCore(memory, trace).run()
    assert cycles
    assert len(cycles) == len(set(cycles))


@pytest.mark.parametrize("target", ["closed", "open_sparse"])
def test_stalled_or_draining_driver_steps_once_per_quiet_window(
    monkeypatch, target
):
    """A rejected retry or a drain waits out its quiet window unstepped.

    After a quiet tick memory is frozen until the horizon that tick
    left, so a retry rejected in the step is rejected again at every
    cycle before it, and a draining driver has nothing to send: the
    fast loop must not step such a driver again before that horizon
    (or the stream's next arrival).
    """
    monkeypatch.setenv("REPRO_FASTFWD", "1")
    system = MemorySystem(baseline_config(), "Burst_TH")
    if target == "open_sparse":
        requests = make_request_stream(
            system.config, 400, seed=4, write_frac=0.5, gap=300
        )
        driver = OpenLoopDriver(system, requests)
    else:
        trace = make_benchmark_trace("swim", accesses=3000, seed=5)
        driver = OoOCore(system, trace)
    cls = type(driver)
    step = cls.step
    horizon = [0]
    early = []

    def watched_step(driver):
        if system.cycle < horizon[0]:
            early.append(system.cycle)
        stalls = getattr(driver, "store_stall_cycles", 0)
        step(driver)
        horizon[0] = 0
        if system.last_tick_active:
            return
        wake = system._quiet_until
        if cls is OpenLoopDriver:
            waiting = driver._stalled or driver.next_arrival >= NEVER
            wake = min(wake, driver.next_arrival)
        else:
            waiting = driver.store_stall_cycles > stalls or (
                driver._trace_done
                and driver._staged is None
                and driver._pending_store is None
                and not driver._rob
            )
        if waiting:
            horizon[0] = wake

    monkeypatch.setattr(cls, "step", watched_step)
    driver.run()
    assert not early, f"{len(early)} steps inside a quiet window"


def test_waiting_core_is_not_stepped(monkeypatch):
    """While the ROB head waits on data only the memory system ticks.

    Most memory cycles of a closed-loop swim run have a blocked ROB
    head; the fast loop must not call ``OoOCore.step`` on them (the
    sequential loop steps once per memory cycle).
    """
    monkeypatch.setenv("REPRO_FASTFWD", "1")
    steps = []
    step = OoOCore.step

    def counting_step(core):
        steps.append(core.system.cycle)
        step(core)

    monkeypatch.setattr(OoOCore, "step", counting_step)
    system = MemorySystem(baseline_config(), "Burst_TH")
    trace = make_benchmark_trace("swim", accesses=900, seed=5)
    result = OoOCore(system, trace).run()
    assert len(steps) < 0.5 * result.mem_cycles


def test_computing_core_is_not_stepped(monkeypatch):
    """A core fetching an instruction gap is not stepped per cycle.

    On DDR5-4800 a trace record's gap takes many memory cycles to
    fetch; those steps only retire and fetch, so the fast loop applies
    them in closed form and steps the core about once per access (to
    issue it) and once per returned read (to retire behind it).
    """
    monkeypatch.setenv("REPRO_FASTFWD", "1")
    steps = []
    step = OoOCore.step

    def counting_step(core):
        steps.append(core.system.cycle)
        step(core)

    monkeypatch.setattr(OoOCore, "step", counting_step)
    system = MemorySystem(generation_config(DDR5_4800), "Burst_TH")
    trace = make_benchmark_trace("swim", accesses=900, seed=5)
    OoOCore(system, trace).run()
    assert len(steps) <= 900 + system.stats.completed_reads + 50


def test_sequential_mode_steps_the_core_every_cycle(monkeypatch):
    """REPRO_FASTFWD=0 keeps the core's one-step-per-cycle reference."""
    monkeypatch.setenv("REPRO_FASTFWD", "0")
    steps = []
    step = OoOCore.step

    def counting_step(core):
        steps.append(core.system.cycle)
        step(core)

    monkeypatch.setattr(OoOCore, "step", counting_step)
    system = MemorySystem(generation_config(DDR5_4800), "Burst_TH")
    trace = make_benchmark_trace("swim", accesses=300, seed=5)
    result = OoOCore(system, trace).run()
    assert steps == list(range(result.mem_cycles))


def _count_skips(monkeypatch):
    """Wrap :meth:`MemorySystem.skip_to`; returns the list of leaps.

    Each call that moves the clock appends its gap, so ``sum`` is the
    skipped cycles and ``len`` the number of leaps.
    """
    gaps = []
    skip_to = MemorySystem.skip_to

    def counting_skip_to(system, target):
        if target > system.cycle:
            gaps.append(target - system.cycle)
        skip_to(system, target)

    monkeypatch.setattr(MemorySystem, "skip_to", counting_skip_to)
    return gaps


def test_fastfwd_actually_skips_cycles(monkeypatch):
    """The engine leaps over idle windows instead of ticking them.

    A workload with 1000-cycle arrival gaps is mostly dead time; the
    bulk of the simulated cycles must be leapt over by ``skip_to``, or
    the tentpole is silently running the old sequential loop.
    """
    monkeypatch.setenv("REPRO_FASTFWD", "1")
    gaps = _count_skips(monkeypatch)
    config = _config(QUIET)
    donor = MemorySystem(config, "BkInOrder")
    requests = []
    for i in range(20):
        address = donor.mapping.encode(DecodedAddress(0, 0, 0, i % 8, 0))
        requests.append((i * 1000, AccessType.READ, address))
    system = MemorySystem(config, "Burst_TH")
    run_requests(system, requests)
    assert sum(gaps) > 0.9 * system.cycle
    assert len(gaps) >= 19


def test_skip_to_weights_per_cycle_samples():
    """Skipped cycles are sampled once each, as the sequential loop does.

    Sampling is credited per run of constant pool occupancy, so the
    histogram is complete at the ``finalize()`` boundary: one ticked
    cycle plus 41 skipped ones, all at zero outstanding reads.
    """
    config = _config(QUIET)
    system = MemorySystem(config, "Burst_TH")
    system.tick()
    system.skip_to(system.cycle + 41)
    system.finalize()
    assert system.cycle == 42
    assert system.stats.outstanding_reads.counts == {0: 42}


def test_zero_length_occupancy_run_adds_no_key():
    """An enqueue before the first tick leaves no empty histogram key.

    The run opened at construction (zero reads) closes after zero
    cycles when cycle 0's tick ends with one read outstanding.
    """
    config = _config(QUIET)
    system = MemorySystem(config, "Burst_TH")
    address = system.mapping.encode(DecodedAddress(0, 0, 0, 1, 0))
    system.enqueue(system.make_access(AccessType.READ, address, 0), 0)
    system.tick()
    system.finalize()
    assert system.stats.outstanding_reads.to_dict() == {"1": 1}
    assert system.stats.outstanding_writes.to_dict() == {"0": 1}


def test_sequential_mode_never_skips(monkeypatch):
    """REPRO_FASTFWD=0 preserves the one-tick-per-cycle A/B loop."""
    monkeypatch.setenv("REPRO_FASTFWD", "0")
    gaps = _count_skips(monkeypatch)
    ticks = []
    tick = MemorySystem.tick

    def counting_tick(system):
        ticks.append(system.cycle)
        return tick(system)

    monkeypatch.setattr(MemorySystem, "tick", counting_tick)
    config = _config(QUIET)
    donor = MemorySystem(config, "BkInOrder")
    address = donor.mapping.encode(DecodedAddress(0, 0, 0, 0, 0))
    system = MemorySystem(config, "Burst_TH")
    run_requests(system, [(500, AccessType.READ, address)])
    assert sum(gaps) == 0
    assert len(ticks) == system.cycle
