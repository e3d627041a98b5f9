"""Property-based test: the core conserves instructions and accesses."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.access import AccessType
from repro.controller.system import MemorySystem
from repro.cpu.core import OoOCore
from repro.sim.config import baseline_config
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
