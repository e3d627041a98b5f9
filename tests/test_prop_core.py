"""Property-based tests of the core: it conserves instructions and
accesses, and its closed-form frozen-span advance equals stepping."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.access import AccessType, EnqueueStatus, MemoryAccess
from repro.controller.system import MemorySystem
from repro.cpu.core import OoOCore
from repro.mapping.base import DecodedAddress
from repro.sim.config import CPUConfig, baseline_config
from repro.workloads.trace import TraceRecord


trace_strategy = st.lists(
    st.tuples(
        st.integers(0, 40),
        st.booleans(),
        st.integers(0, 200),
    ),
    min_size=1,
    max_size=50,
)


@given(raw=trace_strategy)
@settings(max_examples=40, deadline=None)
def test_core_conserves_instructions_and_accesses(raw):
    """Whatever the trace, the OoO core retires exactly the trace's
    gap instructions plus one per load, and every access reaches the
    memory system exactly once."""
    trace = [
        TraceRecord(
            gap,
            AccessType.WRITE if is_write else AccessType.READ,
            line * 64,
        )
        for gap, is_write, line in raw
    ]
    system = MemorySystem(baseline_config(), "Burst_TH")
    result = OoOCore(system, list(trace)).run()
    reads = sum(r.op is AccessType.READ for r in trace)
    writes = len(trace) - reads
    gaps = sum(r.gap for r in trace)
    assert result.loads == reads
    assert result.stores == writes
    assert result.instructions == gaps + reads
    stats = system.stats
    assert stats.completed_reads + stats.forwarded_reads == reads
    assert stats.completed_writes == writes
    assert system.idle


class _QuietMemory:
    """A memory system frozen until a drawn quiet horizon.

    Its last tick was quiet and it rejects every enqueue, as a real
    one does at each cycle before the horizon its quiet tick left.  It
    counts enqueue calls: steps inside a gap span make none.
    """

    def __init__(self, config, horizon):
        self.config = config
        self.cycle = 0
        self.last_tick_active = False
        self._quiet_until = horizon
        self.enqueues = 0

    def tick(self):
        self.cycle += 1
        return []

    def enqueue(self, access, cycle):
        self.enqueues += 1
        return EnqueueStatus.REJECTED_FULL

    def make_access(self, type_, address, cycle, source=0):
        return MemoryAccess(type_, address, _ADDRESS, cycle, source=source)


_ADDRESS = DecodedAddress(0, 0, 0, 0, 0)


@st.composite
def frozen_core_states(draw):
    """A width/ROB/LSQ, a coalesced ROB of instruction runs and loads
    (returned or not), a staged record or an exhausted trace (with an
    empty ROB, the drain), a rejected retry (a pending store, or the
    staged READ) and the memory system's quiet horizon."""
    cpu = CPUConfig(
        width=draw(st.sampled_from([1, 2, 8])),
        rob_entries=draw(st.sampled_from([4, 12, 40, 196])),
        lsq_entries=draw(st.integers(1, 8)),
    )
    entries = draw(
        st.lists(
            st.one_of(
                st.integers(1, 120),
                st.sampled_from(["done", "waiting"]),
            ),
            max_size=12,
        )
    )
    staged = draw(
        st.one_of(
            st.none(),
            st.tuples(st.integers(0, 2000), st.sampled_from(list(AccessType))),
        )
    )
    retry = draw(st.sampled_from([None, "store", "read"]))
    horizon = draw(st.integers(0, 80))
    return cpu, entries, staged, retry, horizon


def _frozen_core(cpu, entries, staged, retry, horizon):
    core = OoOCore(_QuietMemory(baseline_config(cpu=cpu), horizon), [])
    room = cpu.rob_entries
    for entry in entries:
        if isinstance(entry, int):
            take = min(entry, room)
            if take:
                core._append_instructions(take)
            room -= take
            continue
        if room == 0:
            continue
        access = MemoryAccess(AccessType.READ, 0, _ADDRESS, 0)
        if entry == "waiting" and core._inflight_loads < cpu.lsq_entries:
            core._inflight_loads += 1
        else:
            core._done_loads.add(access.id)
        core._rob.append(access)
        core._rob_occupancy += 1
        room -= 1
    if retry == "store":
        # A store pending fetch leaves nothing staged behind it.
        core._pending_store = MemoryAccess(AccessType.WRITE, 0, _ADDRESS, 0)
        core._trace_done = staged is None
        core._stalled = True
    elif staged is None:
        core._trace_done = True
    else:
        gap, op = staged
        if retry == "read":
            gap, op = 0, AccessType.READ
            # Fetch tries the READ only with room in the ROB and LSQ.
            core._stalled = room > 0 and (
                core._inflight_loads < cpu.lsq_entries
            )
        core._staged = (gap, op, 0, 0)
        core._gap_left = gap
    return core


def _pipeline(core):
    rob = [
        entry if isinstance(entry, int) else entry.id in core._done_loads
        for entry in core._rob
    ]
    return (
        rob,
        core._rob_occupancy,
        core._staged is None,
        core._gap_left,
        core._pending_store is None,
        core._stalled,
        core._inflight_loads,
        len(core._done_loads),
        core.instructions,
        core.loads,
        core.stores,
        core.head_block_cycles,
        core.store_stall_cycles,
        core.system.cycle,
    )


@given(state=frozen_core_states(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_advance_equals_the_steps_of_a_frozen_span(state, data):
    """``_advance(k)`` leaves the core exactly as ``k`` steps would,
    for any ``k`` within ``_span()``.  Those steps make no memory call
    outside a rejected retry, and a retry is rejected at every one of
    them: the span of a retry or a drain ends at the quiet horizon."""
    stepped = _frozen_core(*state)
    span = stepped._span()
    if span <= 0:
        return
    retrying = stepped._stalled
    draining = stepped._trace_done and stepped._staged is None and not (
        stepped._rob or stepped._pending_store
    )
    if retrying or draining:
        assert span == stepped.system._quiet_until
    k = data.draw(st.integers(1, min(span, 60)))
    for _ in range(k):
        stepped.step()
    if not retrying:
        assert stepped.system.enqueues == 0
    advanced = _frozen_core(*state)
    advanced._advance(k)
    advanced.system.cycle += k
    assert _pipeline(advanced) == _pipeline(stepped)
