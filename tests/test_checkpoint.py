"""Checkpoint/restore: byte-identical deterministic resume.

The subsystem's defining invariant (DESIGN.md §10): for any workload,
mechanism and snapshot cycle, save → kill → load → run-to-end produces
``SimStats`` byte-identical to the uninterrupted run.  These tests pin
it three ways:

* **directed boundary snapshots** — the checkpoint lands in the states
  most likely to be serialized wrong: mid-burst, with a refresh
  drain pending, with the write queue straddling the Burst_TH
  threshold (51/52/53 of 64), one cycle before a gated schedule
  pass wakes, and while a closed-loop core waits on its ROB head;
* **a hypothesis property** — random workload × random snapshot point
  × every mechanism, open loop, both FASTFWD modes, oracle attached;
* **mismatch rejection** — other code, config drift, wrong
  mechanism/driver/trace/FSB/oracle/engine mode and files cut at any
  byte all raise typed :class:`~repro.errors.CheckpointMismatchError`
  instead of quietly resuming into garbage.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    Checkpointer,
    load_checkpoint,
    read_header,
    save_checkpoint,
)
from repro.controller.access import AccessType
from repro.controller.registry import extension_names, mechanism_names
from repro.controller.system import MemorySystem
from repro.cpu.core import OoOCore
from repro.dram.timing import DDR2_800, DDR5_4800
from repro.errors import CheckpointMismatchError, ConfigError
from repro.experiments.generations import generation_config
from repro.mapping.base import DecodedAddress
from repro.sim.config import baseline_config
from repro.sim.engine import OpenLoopDriver, run_requests
from repro.sim.fsb import FSBAdapter
from repro.timebase import NEVER
from repro.version import code_version
from repro.workloads.fleet import make_fleet_requests
from repro.workloads.mixes import make_mix_trace
from repro.workloads.spec2000 import make_benchmark_trace

from tests.test_engine_fastfwd import (
    QUIET,
    _config,
    _encode,
    fastfwd,
    workloads,
)

ALL_MECHANISMS = list(mechanism_names()) + list(extension_names())

FAST_REFRESH = replace(DDR2_800, tREFI=150, tRFC=20)


def _stats_blob(system) -> str:
    return json.dumps(system.stats.to_dict(), sort_keys=True)


def _resume(system, requests, path):
    """The run saved at ``path``, loaded for a fresh open-loop run of
    ``system`` over ``requests`` and drained; returns its system."""
    driver = load_checkpoint(path, OpenLoopDriver(system, requests))
    driver.run()
    return driver.system


def _roundtrip_at(tmp_path, config, mechanism, requests, predicate,
                  oracle=False):
    """Snapshot the first cycle ``predicate(driver)`` holds; assert the
    resumed run matches the uninterrupted one byte for byte.

    Saving has no side effects, so the snapshotted driver itself runs
    on to completion and serves as the reference.
    """
    system = MemorySystem(config, mechanism, oracle=oracle)
    driver = OpenLoopDriver(system, list(requests))
    hit = False
    while not driver.done:
        if predicate(driver):
            hit = True
            break
        driver.step()
    assert hit, "workload never reached the targeted boundary state"
    path = tmp_path / "boundary.ckpt"
    save_checkpoint(str(path), driver)
    driver.run()
    reference = _stats_blob(system)

    resumed = _resume(
        MemorySystem(config, mechanism, oracle=oracle), list(requests),
        str(path),
    )
    assert _stats_blob(resumed) == reference
    return read_header(str(path))


def _row_stream(config, count, rows=4, gap=2, write_every=None):
    """Requests hammering a few rows of bank (0, 0) plus neighbours."""
    donor = MemorySystem(config, "BkInOrder")
    requests = []
    cycle = 0
    for i in range(count):
        cycle += gap
        decoded = DecodedAddress(0, i % 2, (i // 2) % 2, i % rows, i % 4)
        address = donor.mapping.encode(decoded)
        op = AccessType.READ
        if write_every and i % write_every == 0:
            op = AccessType.WRITE
        requests.append((cycle, op, address))
    return requests


# ----------------------------------------------------------------------
# Directed boundary snapshots
# ----------------------------------------------------------------------


def test_checkpoint_mid_burst(tmp_path):
    """Snapshot while a burst is partially served (served > 0)."""
    config = _config(QUIET)
    requests = _row_stream(config, 40, rows=2, gap=1)

    def mid_burst(driver):
        scheduler = driver.system.schedulers[0]
        return any(
            burst.served > 0
            for queue in scheduler._read_queues.values()
            for burst in queue.bursts
        )

    _roundtrip_at(tmp_path, config, "Burst", requests, mid_burst)


def test_checkpoint_with_refresh_pending(tmp_path):
    """Snapshot while a rank is draining toward a due refresh."""
    config = _config(FAST_REFRESH)
    requests = _row_stream(config, 80, rows=4, gap=3)

    def refresh_pending(driver):
        return any(
            rank.refresh_pending
            for channel in driver.system.channels
            for rank in channel.ranks
        )

    _roundtrip_at(tmp_path, config, "Burst_TH", requests, refresh_pending)


@pytest.mark.parametrize("fast", [False, True])
def test_checkpoint_inside_constant_occupancy_run(tmp_path, fast):
    """Snapshot mid-way through a long run of unchanged pool occupancy.

    Occupancy is credited per run, and the snapshot carries the run
    still open: the resumed statistics must equal an uninterrupted
    run's under both engines.
    """
    config = _config(QUIET)
    donor = MemorySystem(config, "BkInOrder")
    requests = [
        (1000 * i, AccessType.READ if i % 2 else AccessType.WRITE,
         donor.mapping.encode(DecodedAddress(0, i % 2, 0, i % 4, 0)))
        for i in range(4)
    ]
    path = tmp_path / "run.ckpt"
    with fastfwd(fast):
        straight = MemorySystem(config, "Burst_TH", oracle=True)
        run_requests(straight, list(requests))

        partial = MemorySystem(config, "Burst_TH", oracle=True)
        driver = OpenLoopDriver(partial, list(requests))
        history = []
        while partial.cycle < 1500:
            driver.step()
            history.append(partial.pool.count)
        # The pool has sat empty for hundreds of cycles.
        assert history[-400:] == [0] * 400
        save_checkpoint(str(path), driver)

        resumed = _resume(
            MemorySystem(config, "Burst_TH", oracle=True), list(requests),
            str(path),
        )
    assert straight.stats.to_dict() == resumed.stats.to_dict()
    assert resumed.cycle == straight.cycle


@pytest.mark.parametrize("occupancy", [51, 52, 53])
def test_checkpoint_at_write_threshold(tmp_path, occupancy):
    """Snapshot with the write queue at 51/52/53 of 64 — straddling the
    paper's Burst_TH threshold, where one queued write decides whether
    the next schedule pass drains writes or serves reads."""
    config = baseline_config(
        channels=1, ranks=2, banks=2, rows=8,
        pool_size=256, write_queue_size=64, threshold=52,
        timing=QUIET,
    )
    donor = MemorySystem(config, "BkInOrder")
    requests = []
    for i in range(70):
        # One write per cycle, staggered across rows so nothing
        # forwards or coalesces; a read tail drains the pool.
        address = donor.mapping.encode(
            DecodedAddress(0, i % 2, (i // 2) % 2, i % 8, i % 4)
        )
        requests.append((i, AccessType.WRITE, address))
    for i in range(20):
        address = donor.mapping.encode(
            DecodedAddress(0, i % 2, 0, i % 8, (i + 1) % 4)
        )
        requests.append((200 + 4 * i, AccessType.READ, address))

    def at_occupancy(driver):
        return driver.system.pool.write_count == occupancy

    _roundtrip_at(tmp_path, config, "Burst_TH", requests, at_occupancy)


def test_checkpoint_one_cycle_before_gate_wakes(tmp_path):
    """Snapshot at ``_gate_until - 1``: the resumed run must re-run the
    gated schedule pass at exactly the same cycle (the armed gate and
    its stamps pickle with the scheduler)."""
    config = _config(QUIET)
    requests = _row_stream(config, 30, rows=4, gap=40)

    def gate_armed_tomorrow(driver):
        scheduler = driver.system.schedulers[0]
        gate = scheduler._gate_until
        return gate > 0 and driver.system.cycle == gate - 1

    _roundtrip_at(
        tmp_path, config, "Burst_TH", requests, gate_armed_tomorrow
    )


# ----------------------------------------------------------------------
# Property: resume == straight-through, everywhere
# ----------------------------------------------------------------------


@settings(
    deadline=None,
    # tmp_path is only a scratch directory; reusing one across
    # examples is harmless (each example overwrites prop.ckpt).
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    workload=workloads(),
    fraction=st.floats(min_value=0.0, max_value=1.0),
    refresh=st.booleans(),
    fast=st.booleans(),
)
def test_resume_equals_straight_run(tmp_path, workload, fraction,
                                    refresh, fast):
    """Random snapshot point x random workload x every mechanism."""
    config = _config(FAST_REFRESH if refresh else QUIET)
    requests = _encode(config, workload)
    path = tmp_path / "prop.ckpt"
    for mechanism in ALL_MECHANISMS:
        with fastfwd(fast):
            system = MemorySystem(config, mechanism, oracle=True)
            driver = OpenLoopDriver(system, list(requests))
            steps = 0
            # Step the whole drain (counting), then finalize — the
            # resumed run ends in run(), which also finalizes.
            while not driver.done:
                driver.step()
                steps += 1
            system.finalize()
            total = steps
            reference = _stats_blob(system)

            partial = MemorySystem(config, mechanism, oracle=True)
            driver = OpenLoopDriver(partial, list(requests))
            for _ in range(int(total * fraction)):
                if driver.done:
                    break
                driver.step()
            save_checkpoint(str(path), driver)

            resumed = _resume(
                MemorySystem(config, mechanism, oracle=True),
                list(requests), str(path),
            )
        assert _stats_blob(resumed) == reference, (
            f"{mechanism} diverged after resume at step "
            f"{int(total * fraction)}/{total} (fast={fast})"
        )


#: Mechanisms the K=4 fleet resume crosses: the paper's best scheduler
#: plus the QoS variant (whose per-source quota rides in pool state).
FLEET_MECHANISMS = ("Burst_TH", "Burst_QW")


@settings(
    deadline=None, max_examples=20,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    fraction=st.floats(min_value=0.0, max_value=1.0),
    fast=st.booleans(),
)
def test_fleet_resume_equals_straight_run(tmp_path, fraction, fast):
    """K=4 fleet resume: random snapshot cycle x both engine modes x
    oracle on — per-source stats must be byte-identical."""
    config = baseline_config(
        channels=1, ranks=2, banks=2, rows=64,
        pool_size=32, write_queue_size=8, threshold=6,
        sources=4, timing=QUIET,
    )
    requests = make_fleet_requests("symmetric4", 100, config, seed=9)
    path = tmp_path / "fleet.ckpt"
    for mechanism in FLEET_MECHANISMS:
        with fastfwd(fast):
            system = MemorySystem(config, mechanism, oracle=True)
            driver = OpenLoopDriver(system, list(requests))
            steps = 0
            while not driver.done:
                driver.step()
                steps += 1
            system.finalize()
            reference = _stats_blob(system)
            assert len(system.stats.per_source) == 4

            partial = MemorySystem(config, mechanism, oracle=True)
            driver = OpenLoopDriver(partial, list(requests))
            for _ in range(int(steps * fraction)):
                if driver.done:
                    break
                driver.step()
            save_checkpoint(str(path), driver)
            assert read_header(str(path))["driver"] == "open_loop"

            fresh = OpenLoopDriver(
                MemorySystem(config, mechanism, oracle=True), list(requests)
            )
            driver = load_checkpoint(str(path), fresh)
            driver.run()
            resumed = driver.system
        assert _stats_blob(resumed) == reference, (
            f"{mechanism} fleet resume diverged at step "
            f"{int(steps * fraction)}/{steps} (fast={fast})"
        )


@pytest.mark.parametrize("core_cls", [OoOCore])
@pytest.mark.parametrize("with_fsb", [False, True])
def test_closed_loop_resume_identical(tmp_path, core_cls, with_fsb):
    """CPU-coupled (optionally bus-limited) resume is byte-identical,
    including the CoreResult and a trace iterator that resumes on the
    target's trace."""
    config = baseline_config(channels=1, ranks=2, banks=2)

    def build():
        system = MemorySystem(config, "Burst_TH", oracle=True)
        trace = make_benchmark_trace("swim", accesses=900, seed=5)
        target = FSBAdapter(system) if with_fsb else system
        return core_cls(target, trace), system

    core, system = build()
    result = core.run()
    reference = (_stats_blob(system), json.dumps(result.to_dict()))

    core, system = build()
    for _ in range(300):
        if core.done:
            break
        core.step()
    path = tmp_path / "cpu.ckpt"
    save_checkpoint(str(path), core)

    core, _ = build()
    core = load_checkpoint(str(path), core)
    result = core.run()
    assert (_stats_blob(core.system), json.dumps(result.to_dict())) == reference


@pytest.mark.parametrize("core_cls", [OoOCore])
def test_mix_resume_with_staged_record_identical(tmp_path, core_cls):
    """A CMP mix cut while a core holds a staged record of a non-zero
    source: the staged record keeps its source across the snapshot, and
    the per-source stats (and the QoS quota that reads the source)
    resume byte-identical."""
    config = baseline_config(sources=3)  # each core owns a 1 GB slice

    def build():
        system = MemorySystem(config, "Burst_QW", oracle=True)
        trace = make_mix_trace(("swim", "mcf", "gcc"), 300, seed=2)
        return core_cls(system, trace), system

    core, system = build()
    result = core.run()
    reference = (_stats_blob(system), json.dumps(result.to_dict()))
    assert sorted(system.stats.per_source) == [0, 1, 2]

    core, system = build()
    for _ in range(5000):
        core.step()
        if core._staged is not None and core._staged[3] and (
            system.cycle > 200
        ):
            break
    staged_source = core._staged[3]
    assert staged_source
    path = tmp_path / "mix.ckpt"
    save_checkpoint(str(path), core)

    core, _ = build()
    core = load_checkpoint(str(path), core)
    assert core._staged[3] == staged_source
    result = core.run()
    assert (_stats_blob(core.system), json.dumps(result.to_dict())) == reference


@pytest.mark.parametrize("with_fsb", [False, True])
def test_snapshot_inside_wait_resumes_identical(tmp_path, with_fsb):
    """Periodic snapshots cut while the core waits on load data or
    retries a rejected store.

    In the fast loop a core frozen until a load returns (a ``NEVER``
    span), or whose store was rejected before a quiet tick (a span to
    the quiet horizon), is not stepped — only the memory system ticks
    — so these snapshots are taken from inside that wait.  Resuming
    each must reproduce the straight run byte for byte.
    """
    config = baseline_config(channels=1, ranks=2, banks=2)

    def build():
        system = MemorySystem(config, "Burst_TH", oracle=True)
        trace = make_benchmark_trace("swim", accesses=900, seed=5)
        target = FSBAdapter(system) if with_fsb else system
        return OoOCore(target, trace), system

    with fastfwd(True):
        core, system = build()
        result = core.run()
        reference = (_stats_blob(system), json.dumps(result.to_dict()))

        kept = {"wait": [], "store": []}

        def keep_mid_wait(driver, preempting):
            span = driver._span()
            if span >= NEVER:
                # Only a load's data can end such a wait.
                assert driver._inflight_loads > 0
                kind = "wait"
            elif span > 0 and driver._pending_store is not None:
                # A rejected store, between a quiet tick and its horizon.
                kind = "store"
            else:
                return
            if len(kept[kind]) < 3:
                copy = tmp_path / f"{kind}-{len(kept[kind])}.ckpt"
                shutil.copyfile(checkpointer.path, copy)
                kept[kind].append(copy)

        # Store-retry windows last a few cycles, so polls come often
        # enough to land inside some with the bus and without.
        checkpointer = Checkpointer(
            str(tmp_path / "cpu.ckpt"), every=13, on_save=keep_mid_wait
        )
        core, _ = build()
        core.run(checkpointer=checkpointer)
        assert kept["wait"] and kept["store"]

        for path in kept["wait"] + kept["store"]:
            core = load_checkpoint(str(path), build()[0])
            result = core.run()
            resumed = (_stats_blob(core.system), json.dumps(result.to_dict()))
            assert resumed == reference


def test_snapshot_inside_frozen_span_resumes_identical(tmp_path):
    """Every periodic snapshot of a DDR5 closed loop resumes exactly.

    DDR5-4800 fetches 16 instructions per memory cycle, so most cycles
    lie inside a frozen span: memory runs alone and the core's skipped
    steps are applied in one ``_advance`` when the span ends.  A poll
    cut mid-span must see those steps applied, or the snapshot holds a
    core that lags its memory system and the resumed run diverges.
    """
    config = generation_config(DDR5_4800)

    def build():
        system = MemorySystem(config, "Burst_TH")
        trace = make_benchmark_trace("swim", accesses=600, seed=5)
        return OoOCore(system, trace), system

    with fastfwd(True):
        core, system = build()
        result = core.run()
        reference = (_stats_blob(system), json.dumps(result.to_dict()))

        snapshots = []

        def keep(driver, preempting):
            copy = tmp_path / f"span-{len(snapshots)}.ckpt"
            shutil.copyfile(checkpointer.path, copy)
            snapshots.append(copy)

        checkpointer = Checkpointer(
            str(tmp_path / "ddr5.ckpt"), every=211, on_save=keep
        )
        core, _ = build()
        core.run(checkpointer=checkpointer)
        assert len(snapshots) > 20

        for path in snapshots:
            core = load_checkpoint(str(path), build()[0])
            result = core.run()
            resumed = (_stats_blob(core.system), json.dumps(result.to_dict()))
            assert resumed == reference, path.name


def test_restored_references_share_identity(tmp_path):
    """One access referenced from several places restores as ONE object
    (completion heap + scheduler queue must see shared mutations)."""
    config = _config(QUIET)
    requests = _row_stream(config, 20, rows=2, gap=1)
    system = MemorySystem(config, "FCFS")
    driver = OpenLoopDriver(system, requests)
    # Step until the scheduler holds both a queue and an ongoing access.
    for _ in range(12):
        driver.step()
    path = tmp_path / "identity.ckpt"
    save_checkpoint(str(path), driver)

    fresh = OpenLoopDriver(MemorySystem(config, "FCFS"), requests)
    resumed = load_checkpoint(str(path), fresh).system
    scheduler = resumed.schedulers[0]
    by_id = {}
    for _done, _ident, access in scheduler._completions:
        by_id[access.id] = access
    for access in scheduler._queue:
        if access.id in by_id:
            assert access is by_id[access.id]


# ----------------------------------------------------------------------
# Mismatch rejection
# ----------------------------------------------------------------------


def _small_snapshot(tmp_path, mechanism="Burst_TH", oracle=False):
    config = _config(QUIET)
    requests = _row_stream(config, 20, rows=2, gap=2)
    system = MemorySystem(config, mechanism, oracle=oracle)
    driver = OpenLoopDriver(system, requests)
    for _ in range(10):
        driver.step()
    path = tmp_path / "snap.ckpt"
    save_checkpoint(str(path), driver)
    return config, requests, path


def _edit_header(path, **changes) -> None:
    """Rewrite the snapshot header at ``path`` with ``changes``."""
    first, payload = path.read_bytes().split(b"\n", 1)
    header = dict(json.loads(first), **changes)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def test_other_code_version_rejected(tmp_path):
    """A snapshot written by other code is refused, however its layout
    looks: the code version is the one schema number."""
    config, requests, path = _small_snapshot(tmp_path)
    _edit_header(path, code_version="0123456789abcdef")
    with pytest.raises(CheckpointMismatchError, match="code version"):
        _resume(
            MemorySystem(config, "Burst_TH"), requests, str(path)
        )


def test_snapshot_with_legacy_meta_still_loads(tmp_path):
    """Saves once wrote a ``meta`` header key; loading ignores it."""
    config, requests, path = _small_snapshot(tmp_path)
    _edit_header(path, meta={"benchmark": "swim", "cpu": "ooo"})
    system = _resume(MemorySystem(config, "Burst_TH"), requests, str(path))
    reference = MemorySystem(config, "Burst_TH")
    OpenLoopDriver(reference, requests).run()
    assert system.stats.to_dict() == reference.stats.to_dict()


def test_config_fingerprint_drift_rejected(tmp_path):
    config, requests, path = _small_snapshot(tmp_path)
    drifted = replace(config, pool_size=config.pool_size * 2)
    with pytest.raises(CheckpointMismatchError, match="fingerprint"):
        _resume(
            MemorySystem(drifted, "Burst_TH"), requests, str(path)
        )


def test_mechanism_mismatch_rejected(tmp_path):
    config, requests, path = _small_snapshot(tmp_path)
    with pytest.raises(CheckpointMismatchError, match="mechanism"):
        _resume(
            MemorySystem(config, "RowHit"), requests, str(path)
        )


def test_driver_kind_mismatch_rejected(tmp_path):
    config, requests, path = _small_snapshot(tmp_path)
    system = MemorySystem(config, "Burst_TH")
    core = OoOCore(system, make_benchmark_trace("swim", 50, seed=1))
    with pytest.raises(CheckpointMismatchError, match="driver kind"):
        load_checkpoint(str(path), core)


def test_fsb_topology_mismatch_rejected(tmp_path):
    config, requests, path = _small_snapshot(tmp_path)
    system = MemorySystem(config, "Burst_TH")
    driver = OpenLoopDriver(FSBAdapter(system), requests)
    with pytest.raises(CheckpointMismatchError, match="front-side-bus"):
        load_checkpoint(str(path), driver)


def test_oracle_without_snapshot_state_rejected(tmp_path):
    """Target with an oracle cannot resume an oracle-less snapshot: a
    fresh oracle mid-stream would false-flag (e.g. the tREFI audit)."""
    config, requests, path = _small_snapshot(tmp_path, oracle=False)
    with pytest.raises(CheckpointMismatchError, match="oracle"):
        _resume(
            MemorySystem(config, "Burst_TH", oracle=True),
            requests, str(path),
        )


def test_oracleless_target_rejects_oracle_snapshot(tmp_path):
    """The reverse is refused too: the restored run would bring its
    oracle along, so the two must agree."""
    config, requests, path = _small_snapshot(tmp_path, oracle=True)
    with pytest.raises(CheckpointMismatchError, match="oracle"):
        _resume(
            MemorySystem(config, "Burst_TH", oracle=False),
            requests, str(path),
        )


def test_engine_mode_mismatch_rejected(tmp_path):
    """The engine mode is read once, at construction, and pickles with
    the run, so a snapshot resumes only in the mode it was saved in."""
    with fastfwd(True):
        config, requests, path = _small_snapshot(tmp_path)
    with fastfwd(False):
        target = MemorySystem(config, "Burst_TH")
    with pytest.raises(CheckpointMismatchError, match="fastfwd"):
        _resume(target, requests, str(path))


@pytest.mark.parametrize(
    "where", ["empty", "in-header", "after-header", "in-payload", "last-byte"]
)
def test_truncated_snapshot_rejected(tmp_path, where):
    """A file cut at any byte (a kill mid-write that escaped the atomic
    rename, a full disk) is a typed error, never a decode error."""
    config, requests, path = _small_snapshot(tmp_path)
    data = path.read_bytes()
    header = data.index(b"\n") + 1
    cut = {
        "empty": 0,
        "in-header": header // 2,
        "after-header": header,
        "in-payload": (header + len(data)) // 2,
        "last-byte": len(data) - 1,
    }[where]
    path.write_bytes(data[:cut])
    with pytest.raises(CheckpointMismatchError, match="truncated"):
        _resume(
            MemorySystem(config, "Burst_TH"), requests, str(path)
        )


def test_snapshot_refers_to_its_trace(tmp_path):
    """A closed-loop snapshot holds no copy of its trace, and a target
    whose trace has another length is refused."""
    config = baseline_config(channels=1, ranks=2, banks=2)
    trace = make_benchmark_trace("swim", accesses=50_000, seed=5)
    core = OoOCore(MemorySystem(config, "Burst_TH"), trace)
    for _ in range(2000):
        core.step()
    path = tmp_path / "big.ckpt"
    save_checkpoint(str(path), core)
    column_bytes = sum(
        len(column) * getattr(column, "itemsize", 1)
        for column in trace.columns() if column is not None
    )
    assert path.stat().st_size < column_bytes / 10
    assert read_header(str(path))["trace_records"] == 50_000

    shorter = make_benchmark_trace("swim", accesses=49_999, seed=5)
    target = OoOCore(MemorySystem(config, "Burst_TH"), shorter)
    with pytest.raises(CheckpointMismatchError, match="trace length"):
        load_checkpoint(str(path), target)


# ----------------------------------------------------------------------
# The Checkpointer manager
# ----------------------------------------------------------------------


def test_periodic_snapshots_and_meta(tmp_path):
    """Periodic saves; the header carries no front-end ``meta`` key."""
    config = _config(QUIET)
    requests = _row_stream(config, 30, rows=4, gap=30)
    system = MemorySystem(config, "Burst_TH")
    driver = OpenLoopDriver(system, requests)
    path = tmp_path / "periodic.ckpt"
    checkpointer = Checkpointer(str(path), every=100)
    driver.run(checkpointer=checkpointer)
    assert checkpointer.saves >= 2
    header = read_header(str(path))
    assert "meta" not in header
    assert header["code_version"] == code_version()


@pytest.mark.parametrize("every", [0, -5])
def test_nonpositive_interval_rejected(tmp_path, every):
    """An interval below one cycle would snapshot on every poll."""
    with pytest.raises(ConfigError, match="at least 1"):
        Checkpointer(str(tmp_path / "never.ckpt"), every=every)
    assert not (tmp_path / "never.ckpt").exists()


def test_requested_stop_saves_then_exits_143(tmp_path):
    """The SIGTERM path: flag set -> snapshot at next poll -> exit 143.
    The snapshot must resume to the exact uninterrupted statistics."""
    config = _config(QUIET)
    requests = _row_stream(config, 40, rows=4, gap=5)

    system = MemorySystem(config, "Burst_TH")
    OpenLoopDriver(system, list(requests)).run()
    reference = _stats_blob(system)

    system = MemorySystem(config, "Burst_TH")
    driver = OpenLoopDriver(system, list(requests))
    for _ in range(25):
        driver.step()
    path = tmp_path / "killed.ckpt"
    checkpointer = Checkpointer(str(path))
    checkpointer.request_stop()
    with pytest.raises(SystemExit) as exit_info:
        driver.run(checkpointer=checkpointer)
    assert exit_info.value.code == 143
    assert path.exists()

    resumed = _resume(
        MemorySystem(config, "Burst_TH"), list(requests), str(path)
    )
    assert _stats_blob(resumed) == reference


# ----------------------------------------------------------------------
# The run loops poll only when a poll is due
# ----------------------------------------------------------------------


class _PollEveryIteration(Checkpointer):
    """The reference cadence: ``poll`` at every loop boundary."""

    def _reschedule(self) -> None:
        self.next_poll_cycle = -1


def _drivers():
    """One open-loop and one closed-loop driver factory."""
    small = _config(FAST_REFRESH)
    requests = _row_stream(small, 60, rows=4, gap=7, write_every=5)
    full = baseline_config(timing=FAST_REFRESH)
    trace = make_benchmark_trace("swim", 120, seed=1)
    return {
        "open": lambda: OpenLoopDriver(
            MemorySystem(small, "Burst_TH"), list(requests)
        ),
        "closed": lambda: OoOCore(MemorySystem(full, "Burst_TH"), trace),
    }


def _observed_run(tmp_path, factory, cls, stop_on_progress=False, **kwargs):
    """Run to the end (or exit); returns (save, progress) cycle lists."""
    saves, progress = [], []

    def on_progress(driver):
        progress.append(driver.system.cycle)
        if stop_on_progress:
            checkpointer.request_stop()

    checkpointer = cls(
        str(tmp_path / f"{cls.__name__}.ckpt"),
        progress=on_progress,
        on_save=lambda driver, preempting: saves.append(
            (driver.system.cycle, preempting)
        ),
        **kwargs,
    )
    try:
        factory().run(checkpointer=checkpointer)
    except SystemExit as exit_info:
        saves.append(("exit", exit_info.code))
    return saves, progress


@pytest.mark.parametrize("kind", ["open", "closed"])
def test_no_period_and_no_hook_never_polls(kind, monkeypatch):
    polls = []
    monkeypatch.setattr(
        Checkpointer, "poll", lambda self, driver: polls.append(1)
    )
    checkpointer = Checkpointer("unused.ckpt")
    _drivers()[kind]().run(checkpointer=checkpointer)
    assert polls == []


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "sequential"])
@pytest.mark.parametrize("kind", ["open", "closed"])
def test_periodic_saves_and_progress_land_on_reference_cycles(
    tmp_path, kind, fast
):
    factory = _drivers()[kind]
    runs = []
    for cls in (Checkpointer, _PollEveryIteration):
        with fastfwd(fast):
            runs.append(_observed_run(
                tmp_path, factory, cls, every=97, progress_every=40
            ))
    assert runs[0] == runs[1]
    saves, progress = runs[0]
    assert len(saves) >= 2 and len(progress) >= 4
    if not fast:
        # One cycle per iteration: each save lands on last_saved + every.
        cycles = [cycle for cycle, _ in saves]
        assert cycles == [97 * (i + 1) for i in range(len(cycles))]
        assert progress == [40 * (i + 1) for i in range(len(progress))]


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "sequential"])
@pytest.mark.parametrize("kind", ["open", "closed"])
def test_stop_requested_from_progress_hook_exits_at_next_boundary(
    tmp_path, kind, fast
):
    factory = _drivers()[kind]
    runs = []
    for cls in (Checkpointer, _PollEveryIteration):
        with fastfwd(fast):
            runs.append(_observed_run(
                tmp_path, factory, cls, stop_on_progress=True,
                progress_every=150,
            ))
    assert runs[0] == runs[1]
    saves, progress = runs[0]
    assert progress == [150]
    (cycle, preempting), exit_marker = saves
    assert preempting and exit_marker == ("exit", 143)
    if not fast:
        assert cycle == 151
