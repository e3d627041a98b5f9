"""Flat-array scheduler core: equivalence and directed invariants.

The fast-mode schedulers run their passes over :class:`FlatSlots`
(DESIGN.md §11) — bitset candidate sets, stamp-cached timing, an age
matrix for tie-breaks and an inline cross-bank wake min —
while ``REPRO_FASTFWD=0`` keeps the original object-model walk.  The
flat mirror must be *invisible*: byte-identical stats, command traces
and CPU results on every mechanism, with the protocol oracle watching.

The directed tests pin the idioms the property test would only
exercise by luck: equal-age tie-breaks at the age-matrix boundary,
stale-bit reuse after ``clear``/``install``, cache invalidation on a
``refresh_pending`` flip.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.access import AccessType
from repro.controller.base import Scheduler
from repro.controller.flatcore import KIND_ACTIVATE, FlatSlots
from repro.controller.registry import extension_names, mechanism_names
from repro.controller.system import MemorySystem
from repro.dram.timing import DDR2_800, DDR5_4800
from repro.mapping.base import DecodedAddress
from repro.sim.config import baseline_config
from repro.sim.engine import run_requests
from repro.timebase import NEVER

ALL_MECHANISMS = list(mechanism_names()) + list(extension_names())

QUIET = replace(DDR2_800, tREFI=None, tRFC=0)
FAST_REFRESH = replace(DDR2_800, tREFI=150, tRFC=20)

#: Devices the flat/object equivalence draws from: the paper's DDR2
#: baseline and DDR5 with bank groups (tCCD_L/tWTR_L column gates,
#: same-bank refresh).  Each maps to its (quiet, fast-refresh) timing
#: and config overrides; eight DDR5 banks put two in each bank group.
DEVICES = {
    "DDR2_800": ((QUIET, FAST_REFRESH), {}),
    "DDR5_4800": (
        (
            replace(DDR5_4800, tREFI=None, tRFC=0),
            replace(DDR5_4800, tREFI=DDR5_4800.tRFC + 50),
        ),
        {"banks": 8},
    ),
}


@contextmanager
def pinned(**env):
    """Pin environment variables for the duration of one run."""
    saved = {key: os.environ.get(key) for key in env}
    os.environ.update({key: value for key, value in env.items()})
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                del os.environ[key]
            else:
                os.environ[key] = value


def _config(timing, **overrides):
    kwargs = dict(
        timing=timing,
        channels=1,
        ranks=2,
        banks=2,
        rows=8,
        pool_size=32,
        write_queue_size=8,
        threshold=6,
    )
    kwargs.update(overrides)
    return baseline_config(**kwargs)


def _encode(config, workload):
    donor = MemorySystem(config, "BkInOrder")
    requests = []
    for cycle, is_write, rank, bank, row, column in workload:
        address = donor.mapping.encode(
            DecodedAddress(0, rank % config.ranks, bank % config.banks,
                           row, column)
        )
        op = AccessType.WRITE if is_write else AccessType.READ
        requests.append((cycle, op, address))
    return requests


def _run(mechanism, config, requests, **env):
    """One run with the protocol oracle attached via REPRO_ORACLE=1."""
    with pinned(REPRO_ORACLE="1", **env):
        system = MemorySystem(config, mechanism)
        commands = []
        for channel in system.channels:
            channel.add_command_listener(
                lambda event, log=commands: log.append(repr(event))
            )
        run_requests(system, list(requests))
    return system.stats.to_dict(), commands


@st.composite
def workloads(draw):
    """Bursty timestamped requests over a tiny address space."""
    count = draw(st.integers(min_value=4, max_value=32))
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
                draw(st.integers(0, 3)),
                draw(st.integers(0, 7)),
                draw(st.integers(0, 3)),
                draw(st.integers(0, 3)),
            )
        )
    return requests


@contextmanager
def kernel_parity_checked():
    """Check every cached timing-kernel call against its two twins.

    Each cached ``_flat_earliest`` result must equal the uncached
    ``earliest_issue_cycle`` and agree with the device predicates
    behind ``can_issue_access``; yields a one-item list counting the
    checked evaluations.
    """
    kernel = Scheduler._flat_earliest
    calls = [0]

    def checked(self, flat, i, access, cycle):
        t = kernel(self, flat, i, access, cycle)
        if flat is None:
            return t  # the uncached entry itself
        assert t == self.earliest_issue_cycle(access, cycle), (
            f"{self.name}: cached {t} != uncached at cycle {cycle}"
        )
        assert (t <= cycle) == self.can_issue_access(access, cycle), (
            f"{self.name}: kernel {t} disagrees with the device "
            f"predicates at cycle {cycle}"
        )
        calls[0] += 1
        return t

    Scheduler._flat_earliest = checked
    try:
        yield calls
    finally:
        Scheduler._flat_earliest = kernel


@settings(deadline=None)
@given(
    workload=workloads(),
    refresh=st.booleans(),
    device=st.sampled_from(sorted(DEVICES)),
    policy=st.sampled_from(["REFab", "REFpb", "SARP"]),
)
def test_flat_pass_identical_to_object_pass(workload, refresh, device, policy):
    """Flat-array passes are byte-identical to the object-model walk.

    The flat path only runs under ``REPRO_FASTFWD=1`` (the engine sets
    ``_want_hint`` before each pass), so fast-vs-sequential is exactly
    flat-vs-object — on all mechanisms, oracle-clean.  Along the way
    every timing-kernel evaluation is checked against the uncached
    entry and the device predicates.
    """
    timings, overrides = DEVICES[device]
    config = _config(
        timings[refresh], refresh_policy=policy, subarrays=4, **overrides
    )
    requests = _encode(config, workload)
    with kernel_parity_checked() as calls:
        for mechanism in ALL_MECHANISMS:
            obj = _run(mechanism, config, requests, REPRO_FASTFWD="0")
            flat = _run(mechanism, config, requests, REPRO_FASTFWD="1")
            assert flat == obj, f"{mechanism} flat pass diverged"
    assert calls[0] > 0


@settings(deadline=None, max_examples=10)
@given(workload=workloads())
def test_wide_channel_flat_pass_identical_to_object_pass(workload):
    """Flat passes stay byte-identical on a 32-slot channel.

    4 ranks x 8 banks doubles the paper's 16 slots per channel, so
    slot indices need a wider key field and the inline wake min walks
    twice the bitset.  Burst (both arbiters) and Intel each track that
    min in their own flat pass.
    """
    config = _config(QUIET, ranks=4, banks=8)
    assert FlatSlots(MemorySystem(config, "Burst_TH").channels[0]).n == 32
    requests = _encode(config, workload)
    with kernel_parity_checked() as calls:
        for mechanism in ("Burst_TH", "Burst_RP", "Intel"):
            obj = _run(mechanism, config, requests, REPRO_FASTFWD="0")
            flat = _run(mechanism, config, requests, REPRO_FASTFWD="1")
            assert flat == obj, f"{mechanism} wide flat pass diverged"
    assert calls[0] > 0


# ----------------------------------------------------------------------
# Directed: age matrix
# ----------------------------------------------------------------------


def _flat():
    system = MemorySystem(_config(QUIET, ranks=2, banks=4), "Burst_TH")
    return FlatSlots(system.channels[0])


def _access(arrival, is_write=False):
    return SimpleNamespace(arrival=arrival, is_write=is_write)


def test_oldest_equal_age_tie_breaks_to_lowest_slot():
    """Same arrival, same direction: the lowest slot index wins.

    This is the boundary the composed age key exists for — it must
    reproduce the object path's stable min over ``iter_banks`` order.
    """
    flat = _flat()
    for slot in (5, 3, 6):
        flat.install(slot, _access(arrival=10))
    mask = (1 << 5) | (1 << 3) | (1 << 6)
    assert flat.oldest(mask) == 3
    # A strictly earlier arrival beats any slot position.
    flat.install(7, _access(arrival=9))
    assert flat.oldest(mask | (1 << 7)) == 7
    # Masked queries ignore older candidates outside the mask.
    assert flat.oldest((1 << 5) | (1 << 6)) == 5


def test_oldest_orders_reads_before_writes_at_equal_arrival():
    """The direction bit sits above the arrival in the composed key."""
    flat = _flat()
    flat.install(0, _access(arrival=10, is_write=True))
    flat.install(1, _access(arrival=10, is_write=False))
    assert flat.oldest(0b11) == 1


def test_clear_then_install_rewrites_stale_age_bits():
    """A freed slot's stale bits in other rows must never leak.

    ``clear`` is O(1) and leaves other rows' bits for the slot behind;
    ``install`` must rewrite them in both directions before the slot
    can appear in a query again.
    """
    flat = _flat()
    flat.install(0, _access(arrival=5))
    flat.install(1, _access(arrival=6))
    flat.clear(0)
    assert flat.oldest(0b10) == 1
    # Reinstalled *younger* than slot 1: the old "slot 0 is older"
    # relation must not survive the clear.
    flat.install(0, _access(arrival=7))
    assert flat.oldest(0b11) == 1
    flat.clear(1)
    flat.install(1, _access(arrival=4))
    assert flat.oldest(0b11) == 1


# ----------------------------------------------------------------------
# Directed: stamp-cache invalidation
# ----------------------------------------------------------------------


def test_refresh_pending_flip_invalidates_cached_activate():
    """A cached ACTIVATE candidate tracks ``refresh_pending`` flips.

    The refresh engine blocks new activates while a refresh is due and
    bumps ``Rank.ver`` exactly when the flag flips; the flat timing
    cache must recompute on the bumped stamp or the fast path would
    issue an activate the object path (and the device) refuses.
    """
    config = _config(DDR2_800)  # refresh enabled: tREFI is real
    system = MemorySystem(config, "BkInOrder")
    sched = system.schedulers[0]
    address = system.mapping.encode(DecodedAddress(0, 0, 0, 3, 0))
    access = system.make_access(AccessType.READ, address, 0)
    assert system.enqueue(access, 0).name == "ACCEPTED"

    flat = sched._flat
    slot = access.rank * sched._bpr + access.bank
    t0 = sched._flat_earliest(flat, slot, access, 0)
    assert flat.kind[slot] == KIND_ACTIVATE
    assert t0 < NEVER
    assert (t0 <= 0) == sched.can_issue_access(access, 0)

    rank = system.channels[0].ranks[0]
    # Exactly what RefreshController.tick does at the due cycle.
    rank.refresh_pending = True
    rank.ver += 1
    assert sched._flat_earliest(flat, slot, access, 0) == NEVER
    assert not sched.can_issue_access(access, 0)

    rank.refresh_pending = False
    rank.ver += 1
    assert sched._flat_earliest(flat, slot, access, 0) == t0
    assert (t0 <= 0) == sched.can_issue_access(access, 0)


def test_bind_invalidates_timing_cache():
    """(Re)binding a slot forces a timing recompute on the next pass."""
    flat = _flat()
    flat.bind(3, _access(arrival=1))
    assert flat.occupied == 1 << 3
    assert flat.bstamp[3] == -1  # device vers are never negative
    flat.clear(3)
    assert flat.occupied == 0
    assert flat.acc[3] is None


# ----------------------------------------------------------------------
# Directed: engine bookkeeping counters (satellites 1 and 2)
# ----------------------------------------------------------------------


def _sparse_requests(config, count=12, gap=700):
    donor = MemorySystem(config, "BkInOrder")
    requests = []
    for i in range(count):
        address = donor.mapping.encode(DecodedAddress(0, 0, 0, i % 8, 0))
        requests.append((i * gap, AccessType.READ, address))
    return requests


def test_lookout_counters_move_and_stay_out_of_snapshots():
    """The quiet-tick lookout exposes hit/miss counters.

    They are engine bookkeeping, not simulation results: they must
    move under the fast engine yet never appear in ``to_dict()`` (the
    cache and worker byte-identity surface).
    """
    config = _config(QUIET)
    with pinned(REPRO_FASTFWD="1"):
        system = MemorySystem(config, "Burst_TH")
        run_requests(system, _sparse_requests(config))
    stats = system.stats
    assert stats.lookout_hits > 0
    assert stats.lookout_hits + stats.lookout_misses > 0
    snapshot = stats.to_dict()
    assert "lookout_hits" not in snapshot
    assert "lookout_misses" not in snapshot


def test_stamp_cache_skips_most_device_timing(monkeypatch):
    """Cached kernel entries mostly reuse the stamped device half.

    ``_flat_earliest`` entries with a flat mirror recompute
    ``_device_earliest`` only when the owning bank's or rank's version
    stamp moved since the slot was stored (DESIGN.md §11).  Over a
    Burst_TH run some entries must recompute (commands move stamps)
    and some must short-circuit, or the cache is dead weight.
    """
    entries = []
    recomputed = []
    inside = []
    flat_earliest = Scheduler._flat_earliest
    device_earliest = Scheduler._device_earliest

    def counting_flat_earliest(self, flat, i, access, cycle):
        if flat is None:
            return flat_earliest(self, flat, i, access, cycle)
        entries.append(i)
        inside.append(True)
        try:
            return flat_earliest(self, flat, i, access, cycle)
        finally:
            inside.pop()

    def counting_device_earliest(self, bank, rank, access):
        if inside:
            recomputed.append(access)
        return device_earliest(self, bank, rank, access)

    monkeypatch.setattr(Scheduler, "_flat_earliest", counting_flat_earliest)
    monkeypatch.setattr(
        Scheduler, "_device_earliest", counting_device_earliest
    )
    config = _config(QUIET)
    donor = MemorySystem(config, "BkInOrder")
    requests = []
    for i in range(120):
        kind = AccessType.WRITE if i % 3 == 0 else AccessType.READ
        coords = DecodedAddress(0, i % 2, (i // 2) % 2, (i // 8) % 3, i % 4)
        requests.append((i * 4, kind, donor.mapping.encode(coords)))
    system = MemorySystem(config, "Burst_TH")
    run_requests(system, requests)
    assert 0 < len(recomputed) < len(entries)
