"""Ablation: does the front side bus change the headline result?

Table 3 lists a 64-bit 800 MHz DDR FSB whose 12.8 GB/s peak equals the
two DDR2-800 channels combined, so the paper models memory contention
only at the DRAM.  Wrapping the memory system in the explicit
:class:`~repro.sim.fsb.FSBAdapter` checks that assumption: the
BkInOrder -> Burst_TH improvement should survive essentially intact.
"""

from benchmarks.conftest import run_once
from repro.analysis.tables import format_table
from repro.controller.system import MemorySystem
from repro.cpu.core import OoOCore
from repro.experiments.common import scaled_accesses
from repro.settings import setting
from repro.sim.config import baseline_config
from repro.sim.fsb import FSBAdapter
from repro.workloads.spec2000 import make_benchmark_trace

BENCHES = ("swim", "gcc", "mcf")


def _gain(trace, with_fsb):
    cycles = {}
    for mechanism in ("BkInOrder", "Burst_TH"):
        system = MemorySystem(baseline_config(), mechanism)
        target = FSBAdapter(system) if with_fsb else system
        cycles[mechanism] = OoOCore(target, trace).run().mem_cycles
    return 1.0 - cycles["Burst_TH"] / cycles["BkInOrder"]


def _run():
    accesses = scaled_accesses(3000)
    rows = []
    for bench in BENCHES:
        trace = make_benchmark_trace(bench, accesses, setting("seed"))
        without = _gain(trace, with_fsb=False) * 100.0
        with_bus = _gain(trace, with_fsb=True) * 100.0
        rows.append((bench, without, with_bus))
    return rows


def test_ablation_fsb(benchmark, archive):
    rows = run_once(benchmark, _run)
    text = format_table(
        (
            "benchmark",
            "Burst_TH gain, no FSB (%)",
            "Burst_TH gain, explicit FSB (%)",
        ),
        rows,
        title=(
            "Ablation: front side bus (Table 3, 12.8 GB/s) — the "
            "paper's implicit assumption that it is not a bottleneck"
        ),
        float_format="{:.1f}",
    )
    archive("ablation_fsb", text)
    for bench, without, with_bus in rows:
        # The reordering win survives the explicit bus model.
        assert with_bus > without * 0.5, bench
        assert with_bus > 1.0, bench
