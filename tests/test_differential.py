"""Differential cross-mechanism fuzz harness.

Every registered mechanism is a different ordering policy over the
same architecture, so on any workload all of them must (a) drive the
SDRAM without a single protocol violation and (b) produce the same
*architectural outcome*: each read observes the data of the newest
same-address write that preceded it in program order, regardless of
how aggressively the schedule was reordered.

The harness runs one shared hypothesis workload through all of
``repro.controller.registry.MECHANISMS`` with the independent
:mod:`repro.dram.oracle` watching every command, extracts a
mechanism-independent outcome token per read, and compares the
resulting vectors across mechanisms.  Tokens are derived purely from
the completed-access timeline (data-bus completion order), not from
the controllers' forwarding bookkeeping, so a scheduler that reorders
a write past a dependent read is caught even if its own hazard logic
believes everything is fine.

Example counts come from the hypothesis profile (see ``conftest``):
the CI job runs ``--hypothesis-profile=ci`` for 200 derandomized
workloads per test.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.access import AccessType
from repro.controller.registry import MECHANISMS
from repro.controller.system import MemorySystem
from repro.dram.oracle import attach_oracles
from repro.dram.timing import DDR2_800, GENERATIONS
from repro.mapping.base import DecodedAddress
from repro.sim.config import baseline_config
from repro.sim.engine import OpenLoopDriver

#: Refresh off for the bulk of the fuzzing (deterministic drains) …
QUIET = replace(DDR2_800, tREFI=None, tRFC=0)
#: … and a fast-refresh variant so refresh interleaving is fuzzed too.
FAST_REFRESH = replace(DDR2_800, tREFI=150, tRFC=20)


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


@st.composite
def workloads(draw):
    """A timestamped request stream over a tiny address space.

    Arrivals are non-decreasing, so list position == program order ==
    enqueue order; the small rank/bank/row/column domains force heavy
    same-address and same-bank interaction, which is where reordering
    bugs live.
    """
    count = draw(st.integers(min_value=4, max_value=36))
    requests = []
    cycle = 0
    for _ in range(count):
        cycle += draw(st.integers(min_value=0, max_value=6))
        requests.append(
            (
                cycle,
                draw(st.booleans()),            # is_write
                draw(st.integers(0, 1)),        # rank
                draw(st.integers(0, 1)),        # bank
                draw(st.integers(0, 3)),        # row
                draw(st.integers(0, 3)),        # column
            )
        )
    return requests


def _encode(config, workload):
    """Turn a raw workload into driver requests [(cycle, type, addr)]."""
    system = MemorySystem(config, "BkInOrder")  # mapping donor only
    requests = []
    for cycle, is_write, rank, bank, row, column in workload:
        address = system.mapping.encode(
            DecodedAddress(0, rank, bank, row, column)
        )
        op = AccessType.WRITE if is_write else AccessType.READ
        requests.append((cycle, op, address))
    return requests


def _expected_tokens(requests):
    """Program-order semantics, independent of any mechanism.

    The token of a write is its stream position; a read must observe
    the newest same-address write before it (None = cold memory).
    """
    newest = {}
    expected = {}
    for position, (_, op, address) in enumerate(requests):
        if op is AccessType.WRITE:
            newest[address] = position
        else:
            expected[position] = newest.get(address)
    return expected


@contextmanager
def _fastfwd(enabled):
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


def _run_mechanism(name, config, requests, fast=None):
    """Run one mechanism; returns (observed-token map, oracle violations,
    stats dict).  ``fast`` pins the engine mode (None = environment).

    The observed token of a read is reconstructed from the data-bus
    timeline alone: the newest same-address write whose burst completed
    before the read's burst.  A forwarded read observes the write queue
    instead, which by enqueue order is the newest preceding write — it
    is recorded as observing that write only if one actually exists.
    """
    if fast is None:
        fast = os.environ.get("REPRO_FASTFWD", "1") != "0"
    with _fastfwd(fast):
        system = MemorySystem(config, MECHANISMS[name])
        created = []
        make_access = system.make_access

        def recording_make_access(type_, address, arrival, source=0):
            access = make_access(type_, address, arrival, source)
            created.append(access)
            return access

        system.make_access = recording_make_access
        oracles = attach_oracles(system, strict=False)
        OpenLoopDriver(system, requests).run()
    violations = [v for oracle in oracles for v in oracle.violations]

    assert len(created) == len(requests), f"{name}: lost requests"
    observed = {}
    for position, access in enumerate(created):
        assert access.complete_cycle is not None, (
            f"{name}: access #{position} never completed"
        )
        if access.is_write:
            continue
        if access.forwarded:
            writes_before = [
                j for j, other in enumerate(created[:position])
                if other.is_write and other.address == access.address
            ]
            assert writes_before, (
                f"{name}: read #{position} forwarded from nothing"
            )
            observed[position] = writes_before[-1]
        else:
            done_writes = [
                j for j, other in enumerate(created)
                if other.is_write
                and other.address == access.address
                and other.complete_cycle < access.complete_cycle
            ]
            observed[position] = max(done_writes) if done_writes else None
    return observed, violations, system.stats.to_dict()


@given(workload=workloads())
@settings(deadline=None)
def test_differential_outcomes_and_conformance(workload):
    """All mechanisms: zero violations, identical architectural outcome."""
    config = _config(QUIET)
    requests = _encode(config, workload)
    expected = _expected_tokens(requests)
    for name in MECHANISMS:
        observed, violations, _ = _run_mechanism(name, config, requests)
        assert not violations, (
            f"{name}: protocol violations:\n"
            + "\n".join(str(v) for v in violations)
        )
        assert observed == expected, (
            f"{name}: architectural outcome diverged from program order"
        )


@given(workload=workloads())
@settings(deadline=None)
def test_differential_with_auto_refresh(workload):
    """The same invariants hold with auto refresh interleaved."""
    config = _config(FAST_REFRESH)
    requests = _encode(config, workload)
    expected = _expected_tokens(requests)
    for name in MECHANISMS:
        observed, violations, _ = _run_mechanism(name, config, requests)
        assert not violations, (
            f"{name}: protocol violations:\n"
            + "\n".join(str(v) for v in violations)
        )
        assert observed == expected, (
            f"{name}: outcome diverged under refresh"
        )


@given(
    workload=workloads(),
    policy=st.sampled_from(["REFpb", "DARP", "SARP"]),
)
@settings(deadline=None)
def test_differential_with_per_bank_refresh(workload, policy):
    """Per-bank refresh policies uphold the same invariants: zero
    protocol violations (the oracle's REFpb rulebook watching) and
    program-order read-observes-write tokens under every mechanism."""
    config = replace(
        _config(FAST_REFRESH), refresh_policy=policy, subarrays=4
    )
    requests = _encode(config, workload)
    expected = _expected_tokens(requests)
    for name in MECHANISMS:
        observed, violations, _ = _run_mechanism(name, config, requests)
        assert not violations, (
            f"{name}/{policy}: protocol violations:\n"
            + "\n".join(str(v) for v in violations)
        )
        assert observed == expected, (
            f"{name}: outcome diverged under {policy}"
        )


def _generation_config(timing):
    """A tiny machine on one generation profile, refresh compressed.

    ``tREFI`` is squeezed so a handful of refreshes land inside every
    workload regardless of generation, keeping the duty cycle (and the
    oracle's tREFI/tRFC/tRFCpb rules) exercised.  Eight banks put two
    banks in each DDR5 bank group, so same-group and cross-group
    column gaps (tCCD_L vs tCCD_S) both occur; profiles with per-bank
    refresh parameters run under REFpb so the same-bank refresh
    windows are checked too.
    """
    timing = replace(timing, tREFI=max(150, timing.tRFC + 50))
    return baseline_config(
        timing=timing,
        channels=1,
        ranks=2,
        banks=8,
        rows=4,
        subarrays=2,
        pool_size=32,
        write_queue_size=8,
        threshold=6,
        refresh_policy="REFpb" if timing.tRFCpb else "REFab",
    )


@st.composite
def generation_workloads(draw):
    """Like :func:`workloads`, but spanning 8 banks and sub-channels."""
    count = draw(st.integers(min_value=4, max_value=28))
    requests = []
    cycle = 0
    for _ in range(count):
        cycle += draw(st.integers(min_value=0, max_value=6))
        requests.append(
            (
                cycle,
                draw(st.booleans()),            # is_write
                draw(st.integers(0, 1)),        # channel (mod total)
                draw(st.integers(0, 1)),        # rank
                draw(st.integers(0, 7)),        # bank (2 per DDR5 group)
                draw(st.integers(0, 3)),        # row
                draw(st.integers(0, 3)),        # column
            )
        )
    return requests


def _encode_generation(config, workload):
    """Encode a generation workload, folding sub-channels in."""
    donor = MemorySystem(config, "BkInOrder")  # mapping donor only
    total = config.total_channels
    requests = []
    for cycle, is_write, channel, rank, bank, row, column in workload:
        address = donor.mapping.encode(
            DecodedAddress(channel % total, rank, bank, row, column)
        )
        op = AccessType.WRITE if is_write else AccessType.READ
        requests.append((cycle, op, address))
    return requests


@given(
    workload=generation_workloads(),
    timing=st.sampled_from(GENERATIONS),
)
@settings(deadline=None, max_examples=30)
def test_differential_generation_profiles(workload, timing):
    """Every generation profile upholds the invariants for every
    mechanism, in both engine modes, with the oracle watching.

    This is the generation ladder's conformance sweep: DDR5's bank
    groups (tCCD_L/tCCD_S, tWTR_L), BL16 data windows, sub-channels
    and same-bank refresh run under exactly the rules the per-
    generation oracle table derives for the profile — and the
    sequential and flat engines must agree byte-for-byte on the stats
    of every mechanism (Burst_BPW's drain latch included).
    """
    config = _generation_config(timing)
    requests = _encode_generation(config, workload)
    expected = _expected_tokens(requests)
    for name in MECHANISMS:
        observed, violations, sequential = _run_mechanism(
            name, config, requests, fast=False
        )
        assert not violations, (
            f"{name}/{timing.name}: protocol violations:\n"
            + "\n".join(str(v) for v in violations)
        )
        assert observed == expected, (
            f"{name}: outcome diverged on {timing.name}"
        )
        observed_fast, violations_fast, fast = _run_mechanism(
            name, config, requests, fast=True
        )
        assert not violations_fast, (
            f"{name}/{timing.name}: flat-engine protocol violations:\n"
            + "\n".join(str(v) for v in violations_fast)
        )
        assert observed_fast == observed, (
            f"{name}: engines disagree on outcome for {timing.name}"
        )
        assert fast == sequential, (
            f"{name}: engines disagree on stats for {timing.name}"
        )


def test_conservation_counts():
    """Every request is accounted for in the statistics, per mechanism."""
    config = _config(QUIET)
    workload = [
        (i, i % 3 == 0, i % 2, (i // 2) % 2, i % 4, i % 4)
        for i in range(24)
    ]
    requests = _encode(config, workload)
    reads = sum(1 for _, op, _ in requests if op is AccessType.READ)
    writes = len(requests) - reads
    for name in MECHANISMS:
        system = MemorySystem(config, MECHANISMS[name])
        driver = OpenLoopDriver(system, requests)
        driver.run()
        stats = system.stats
        assert stats.completed_writes == writes, name
        assert (
            stats.completed_reads + stats.forwarded_reads == reads
        ), name
        assert len(driver.completed) == reads, name
