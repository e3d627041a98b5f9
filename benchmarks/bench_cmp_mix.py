"""§6 extrapolation: multiprogrammed (CMP) mixes.

"Access reordering mechanisms will play a more important role with
chip level multiple processors, as the memory controller will have
larger number of outstanding main memory accesses from which to
select" (§6).  This benchmark runs the standard 4-core mixes through
the mechanisms and checks that the burst scheduler's advantage holds
(or grows) under combined traffic, that no mechanism starves any
core's accesses, and that each core is reported as its own tenant.
"""

from benchmarks.conftest import run_once
from repro.analysis.fairness import per_source_read_latency
from repro.analysis.tables import format_table
from repro.controller.system import MemorySystem
from repro.cpu.core import OoOCore
from repro.experiments.common import default_seed, scaled_accesses
from repro.sim.config import baseline_config
from repro.workloads.mixes import STANDARD_MIXES, make_mix_trace

MECHS = ("BkInOrder", "RowHit", "Intel", "Burst_TH")


def _run():
    accesses = scaled_accesses(1500)
    rows = []
    for mix_name, benches in STANDARD_MIXES.items():
        trace = make_mix_trace(benches, accesses, default_seed())
        cycles = {}
        for mechanism in MECHS:
            system = MemorySystem(baseline_config(), mechanism)
            result = OoOCore(system, trace).run()
            cycles[mechanism] = result.mem_cycles
            stats = system.stats
            completed = (
                stats.completed_reads
                + stats.completed_writes
                + stats.forwarded_reads
            )
            assert completed == len(trace), (mix_name, mechanism)
            # One tenant per core, and every read lands in exactly one
            # tenant's record.
            per_core = per_source_read_latency(stats)
            assert sorted(per_core) == list(range(len(benches))), (
                mix_name, mechanism, sorted(per_core)
            )
            assert sum(
                s.completed_reads for s in stats.per_source.values()
            ) == stats.completed_reads, (mix_name, mechanism)
        base = cycles["BkInOrder"]
        rows.append(
            tuple([mix_name] + [cycles[m] / base for m in MECHS])
        )
    return rows


def test_cmp_mixes(benchmark, archive):
    rows = run_once(benchmark, _run)
    text = format_table(
        ("mix",) + MECHS,
        rows,
        title=(
            "§6: 4-core multiprogrammed mixes, execution time "
            "normalized to BkInOrder"
        ),
    )
    archive("cmp_mix", text)
    for row in rows:
        mix, *normalized = row
        by_mech = dict(zip(MECHS, normalized))
        # Burst_TH keeps a clear win over in-order on every mix and
        # never loses to Intel.
        assert by_mech["Burst_TH"] < 0.95, mix
        assert by_mech["Burst_TH"] <= by_mech["Intel"] * 1.02, mix
