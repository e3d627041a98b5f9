"""Unit and behaviour tests for the burst scheduling mechanism."""

from dataclasses import replace


from repro.controller.access import AccessType
from repro.controller.system import MemorySystem
from repro.dram.channel import RowState
from repro.mapping.base import DecodedAddress
from repro.sim.engine import OpenLoopDriver
from tests.conftest import make_request_stream


def _addr(system, rank=0, bank=0, row=0, col=0):
    return system.mapping.encode(DecodedAddress(0, rank, bank, row, col))


def test_variant_factories_set_flags(small_config):
    system = MemorySystem(small_config, "Burst")
    s = system.schedulers[0]
    assert (s.read_preemption, s.write_piggybacking) == (False, False)
    system = MemorySystem(small_config, "Burst_RP")
    s = system.schedulers[0]
    assert s.read_preemption and not s.write_piggybacking
    assert s.threshold == small_config.write_queue_size
    system = MemorySystem(small_config, "Burst_WP")
    s = system.schedulers[0]
    assert s.write_piggybacking and not s.read_preemption
    assert s.threshold == 0
    system = MemorySystem(small_config, "Burst_TH")
    s = system.schedulers[0]
    assert s.read_preemption and s.write_piggybacking
    assert s.threshold == small_config.threshold
    assert s.name == f"Burst_TH{small_config.threshold}"


def test_interleaved_same_row_reads_form_burst(small_config):
    """Reads to the same row arriving interleaved with another row's
    reads are clustered and served as row hits (Figure 2)."""
    system = MemorySystem(small_config, "Burst")
    requests = [
        (0, AccessType.READ, _addr(system, row=1, col=0)),
        (0, AccessType.READ, _addr(system, row=2, col=0)),
        (0, AccessType.READ, _addr(system, row=1, col=1)),
        (0, AccessType.READ, _addr(system, row=2, col=1)),
        (0, AccessType.READ, _addr(system, row=1, col=2)),
    ]
    driver = OpenLoopDriver(system, requests)
    driver.run()
    # rows: 1 empty + 2 hits (burst of row 1), then 1 conflict + 1 hit.
    states = [a.row_state for a in driver.completed]
    assert states.count(RowState.HIT) == 3
    # All row-1 reads completed before any row-2 read.
    row1 = [a.complete_cycle for a in driver.completed if a.row == 1]
    row2 = [a.complete_cycle for a in driver.completed if a.row == 2]
    assert max(row1) < min(row2)


def test_writes_postponed_while_reads_outstanding(small_config):
    """Figure 5 line 6 at controller scope: no write drains while any
    read is outstanding in the channel."""
    system = MemorySystem(small_config, "Burst")
    w = system.make_access(AccessType.WRITE, _addr(system, bank=0, row=1), 0)
    r = system.make_access(AccessType.READ, _addr(system, bank=1, row=2), 0)
    system.enqueue(w, 0)
    system.enqueue(r, 0)
    while not system.idle:
        system.tick()
    assert r.complete_cycle < w.complete_cycle


def test_full_write_queue_forces_drain(small_config):
    cfg = replace(small_config, pool_size=8, write_queue_size=2, threshold=1)
    system = MemorySystem(cfg, "Burst")
    requests = [
        (0, AccessType.WRITE, _addr(system, bank=0, row=1)),
        (0, AccessType.WRITE, _addr(system, bank=1, row=2)),
        (0, AccessType.READ, _addr(system, bank=0, row=3)),
    ]
    driver = OpenLoopDriver(system, requests)
    driver.run()
    assert system.stats.completed_writes == 2


def test_piggybacked_write_is_row_hit(small_config):
    """Burst_WP: after a read burst to row R, a queued write to row R
    is appended and completes as a row hit (§3.2)."""
    system = MemorySystem(small_config, "Burst_WP")
    w = system.make_access(
        AccessType.WRITE, _addr(system, row=1, col=9), 0
    )
    requests = [
        (0, AccessType.READ, _addr(system, row=1, col=0)),
        (0, AccessType.READ, _addr(system, row=1, col=1)),
        (0, AccessType.READ, _addr(system, row=2, col=0)),
    ]
    driver = OpenLoopDriver(system, requests)
    system.enqueue(w, 0)
    driver.run()
    assert w.piggybacked
    assert w.row_state is RowState.HIT
    assert system.stats.piggybacked_writes == 1
    # The piggybacked write beat the row-2 burst.
    row2 = [a for a in driver.completed if a.row == 2]
    assert w.complete_cycle < row2[0].complete_cycle


def test_piggyback_requires_matching_row(small_config):
    """A write to a different row is NOT appended to the burst."""
    system = MemorySystem(small_config, "Burst_WP")
    w = system.make_access(AccessType.WRITE, _addr(system, row=5), 0)
    requests = [
        (0, AccessType.READ, _addr(system, row=1, col=0)),
        (0, AccessType.READ, _addr(system, row=1, col=1)),
    ]
    driver = OpenLoopDriver(system, requests)
    system.enqueue(w, 0)
    driver.run()
    assert not w.piggybacked


def test_read_preemption_interrupts_ongoing_write(small_config):
    """Figure 5 lines 9-11: under the threshold, an arriving read
    resets a write that has not yet transferred data."""
    system = MemorySystem(small_config, "Burst_RP")
    scheduler = system.schedulers[0]
    w = system.make_access(AccessType.WRITE, _addr(system, row=1), 0)
    system.enqueue(w, 0)
    scheduler._arbitrate((0, 0))
    assert scheduler._ongoing[(0, 0)] is w
    r = system.make_access(AccessType.READ, _addr(system, row=2), 1)
    system.enqueue(r, 1)
    scheduler._arbitrate((0, 0))
    assert scheduler._ongoing[(0, 0)] is r
    assert w.preempted
    assert system.stats.preemptions == 1


def test_plain_burst_never_preempts_or_piggybacks(small_config):
    system = MemorySystem(small_config, "Burst")
    requests = make_request_stream(
        replace(small_config), 200, seed=5, write_frac=0.4
    )
    OpenLoopDriver(system, requests).run()
    assert system.stats.preemptions == 0
    assert system.stats.piggybacked_writes == 0


def test_preempted_write_restarts_and_completes(small_config):
    system = MemorySystem(small_config, "Burst_RP")
    w = system.make_access(AccessType.WRITE, _addr(system, row=1), 0)
    system.enqueue(w, 0)
    system.tick()  # write becomes ongoing, may activate
    r = system.make_access(AccessType.READ, _addr(system, row=2), 1)
    system.enqueue(r, 1)
    while not system.idle:
        system.tick()
    assert w.complete_cycle is not None
    assert system.stats.completed_writes == 1


def test_th_equivalences(small_config):
    """§5.4: Burst_RP ≡ TH(write queue size) and Burst_WP ≡ TH0 —
    exact same cycle counts on the same trace."""
    requests = make_request_stream(small_config, 400, seed=9, write_frac=0.4)

    def cycles(mechanism, config=small_config):
        system = MemorySystem(config, mechanism)
        OpenLoopDriver(system, list(requests)).run()
        return system.cycle

    def burst_th(threshold):
        return cycles("Burst_TH", small_config.with_threshold(threshold))

    assert cycles("Burst_RP") == burst_th(small_config.write_queue_size)
    assert cycles("Burst_WP") == burst_th(0)


def test_all_accesses_complete_under_all_variants(small_config):
    for mech in ("Burst", "Burst_RP", "Burst_WP", "Burst_TH"):
        system = MemorySystem(small_config, mech)
        requests = make_request_stream(
            small_config, 400, seed=13, write_frac=0.35
        )
        OpenLoopDriver(system, requests).run()
        stats = system.stats
        assert (
            stats.completed_reads
            + stats.completed_writes
            + stats.forwarded_reads
            == 400
        ), mech


# ----------------------------------------------------------------------
# Threshold boundary (paper §4 / §5.4): the write queue occupancy test
# is RP strictly *below* TH, WP at TH *or above*.  Pinned at 51/52/53
# of the Table 3 64-entry write queue so an off-by-one in either
# comparison fails a directed case, not just a statistics drift.
# ----------------------------------------------------------------------


def _fill_writes(system, count, bank=1, row=3, start_col=0):
    """Queue ``count`` distinct writes to one bank of channel 0."""
    for i in range(count):
        access = system.make_access(
            AccessType.WRITE,
            _addr(system, rank=0, bank=bank, row=row, col=start_col + i),
            1,
        )
        assert system.enqueue(access, 1) is not None
    return system.pool.write_count


def test_wp_engages_at_exactly_threshold_occupancy(config):
    from repro.controller.access import EnqueueStatus

    system = MemorySystem(config, "Burst_TH")
    scheduler = system.schedulers[0]
    assert scheduler.threshold == 52
    assert config.write_queue_size == 64
    # Park an outstanding read on another bank so Figure 5 line 6
    # (drain writes once no reads remain) cannot mask the WP decision.
    parked = system.make_access(
        AccessType.READ, _addr(system, rank=1, bank=0, row=0), 0
    )
    assert system.enqueue(parked, 0) is EnqueueStatus.ACCEPTED
    # Open the target row so a row-hit piggyback candidate exists.
    system.channels[0].issue_activate(0, 0, 1, 3)
    key = (0, 1)
    assert _fill_writes(system, 51) == 51
    scheduler._arbitrate(key)
    assert scheduler._ongoing[key] is None, (
        "occupancy 51 < TH 52 must not piggyback writes"
    )
    assert _fill_writes(system, 1, start_col=51) == 52
    scheduler._arbitrate(key)
    selected = scheduler._ongoing[key]
    assert selected is not None and selected.is_write and selected.piggybacked
    # Still engaged above the threshold (53).
    scheduler._ongoing[key] = None
    assert _fill_writes(system, 1, start_col=52) == 53
    scheduler._arbitrate(key)
    selected = scheduler._ongoing[key]
    assert selected is not None and selected.is_write


def test_rp_preempts_only_strictly_below_threshold(config):
    from repro.controller.access import EnqueueStatus

    def build(occupancy):
        system = MemorySystem(config, "Burst_TH")
        scheduler = system.schedulers[0]
        key = (0, 1)
        assert _fill_writes(system, occupancy) == occupancy
        # White box: make the oldest queued write the bank's ongoing
        # access, as an earlier full-queue drain would have.
        scheduler._ongoing[key] = scheduler._write_queues[key][0]
        read = system.make_access(
            AccessType.READ, _addr(system, rank=0, bank=1, row=5), 3
        )
        assert system.enqueue(read, 3) is EnqueueStatus.ACCEPTED
        return system, scheduler, key

    system, scheduler, key = build(51)
    scheduler._arbitrate(key)
    assert scheduler._ongoing[key].is_read, "51 < TH 52: read preempts"
    assert system.stats.preemptions == 1

    system, scheduler, key = build(52)
    ongoing = scheduler._ongoing[key]
    scheduler._arbitrate(key)
    assert scheduler._ongoing[key] is ongoing, (
        "occupancy 52 >= TH 52: the write keeps the bank"
    )
    assert system.stats.preemptions == 0
