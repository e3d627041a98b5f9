"""Ablation: what is the Table 2 / Figure 6 priority table worth?

The paper argues (§4.2) that RowHit and Intel group row hits "best
effort" and, lacking timing-constraint awareness, introduce bubble
cycles — while burst scheduling's transaction priority keeps row hits
back to back and overlaps overhead transactions.  This ablation
replaces the priority table with naive round-robin issue inside the
otherwise unchanged Burst_TH mechanism and measures the cost on the
streaming benchmarks.
"""

from benchmarks.conftest import run_once
from repro.analysis.metrics import arithmetic_mean
from repro.analysis.tables import format_table
from repro.controller.system import MemorySystem
from repro.core.scheduler import BurstScheduler
from repro.cpu.core import OoOCore
from repro.experiments.common import scaled_accesses
from repro.settings import setting
from repro.workloads.spec2000 import make_benchmark_trace

BENCHES = ("swim", "mgrid", "applu", "gcc", "lucas", "art")


def _factory(use_priority_table):
    def factory(config, channel, pool, stats):
        return BurstScheduler(
            config,
            channel,
            pool,
            stats,
            read_preemption=True,
            write_piggybacking=True,
            use_priority_table=use_priority_table,
        )

    return factory


def _run():
    accesses = scaled_accesses(4000)
    rows = []
    for bench in BENCHES:
        trace = make_benchmark_trace(bench, accesses, setting("seed"))
        cycles = {}
        for label, flag in (("priority", True), ("naive", False)):
            system = MemorySystem(system_config(), _factory(flag))
            cycles[label] = OoOCore(system, trace).run().mem_cycles
        rows.append(
            (bench, cycles["priority"], cycles["naive"],
             cycles["naive"] / cycles["priority"])
        )
    return rows


def system_config():
    from repro.sim.config import baseline_config

    return baseline_config()


def test_ablation_priority_table(benchmark, archive):
    rows = run_once(benchmark, _run)
    text = format_table(
        ("benchmark", "priority table (cycles)", "naive issue (cycles)",
         "naive / priority"),
        rows,
        title=(
            "Ablation: Table 2 transaction priority vs naive "
            "round-robin issue (Burst_TH)"
        ),
        float_format="{:.3f}",
    )
    archive("ablation_priority", text)
    ratios = [row[3] for row in rows]
    # The priority table never loses meaningfully and wins on average.
    assert arithmetic_mean(ratios) >= 1.0
    assert min(ratios) > 0.97
