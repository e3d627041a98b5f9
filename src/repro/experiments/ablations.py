"""Ablations beyond the paper — six closed-loop studies as runner cells.

Each study archives one table as ``benchmarks/results/<stem>.txt``:

* ``ablation_cpu_model`` — the §2 premise: Burst_TH's gain over
  BkInOrder with the out-of-order core vs a one-entry LSQ (one
  outstanding load), min-max over :data:`SEEDS`;
* ``ablation_mapping`` — §7's address mappings under Burst_TH;
* ``ablation_policies`` — §7's dynamic threshold (Burst_DYN) vs the
  static Burst_TH52, min-max over :data:`SEEDS`;
* ``ablation_rowpolicy`` — open page vs CPA (Table 1) vs the
  history-based predictor of ref [22], under Burst_TH;
* ``cmp_mix`` — §6's 4-core mixes, execution time vs BkInOrder;
* ``microbench`` — the memory system's microbenchmark datasheet.

A mix (``swim+mgrid+applu+lucas``) or a microbenchmark names a cell's
workload as a SPEC profile does (:func:`repro.workloads.make_trace`).
:func:`run` resolves all six cell lists with one ``resolve`` call, so
a cell two studies share is simulated once.  The FSB and the
priority-table ablations stay hand-built benches (DESIGN.md §4).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Hashable

from repro.analysis.tables import format_table
from repro.experiments.common import cell, resolve, scaled_accesses
from repro.experiments.runner import Cell
from repro.sim.config import ROW_POLICIES, baseline_config
from repro.workloads.microbench import MICROBENCHMARKS
from repro.workloads.mixes import STANDARD_MIXES

#: Seeds of the two multi-seed studies (CPU model, dynamic threshold).
SEEDS = (1, 2, 3)
PAIR = ("BkInOrder", "Burst_TH")
CPU_BENCHES = ("swim", "gcc", "art")
MAPPINGS = ("page_interleave", "cacheline_interleave", "permutation")
MAPPING_BENCHES = ("swim", "gcc", "mcf", "art")
POLICY_BENCHES = ("swim", "gcc", "mcf", "lucas", "art", "parser")
ROWPOLICY_BENCHES = ("swim", "mcf", "gcc")
CMP_MECHS = ("BkInOrder", "RowHit", "Intel", "Burst_TH")


def cells() -> Dict[Hashable, Cell]:
    """Every study's cells, keyed ``(stem, ...)``."""
    base = baseline_config()
    one_load = replace(base, cpu=replace(base.cpu, lsq_entries=1))
    return {
        **{
            ("ablation_cpu_model", bench, seed, core, mech):
                cell(bench, mech, 3000, config, seed)
            for bench in CPU_BENCHES
            for seed in SEEDS
            for core, config in (("ooo", base), ("one_load", one_load))
            for mech in PAIR
        },
        **{
            ("ablation_mapping", bench, mapping):
                cell(bench, "Burst_TH", 4000, replace(base, mapping=mapping))
            for bench in MAPPING_BENCHES
            for mapping in MAPPINGS
        },
        **{
            ("ablation_policies", bench, seed, mech):
                cell(bench, mech, 4000, seed=seed)
            for bench in POLICY_BENCHES
            for seed in SEEDS
            for mech in ("Burst_TH", "Burst_DYN")
        },
        **{
            ("ablation_rowpolicy", bench, policy): cell(
                bench, "Burst_TH", 3000, replace(base, row_policy=policy)
            )
            for bench in ROWPOLICY_BENCHES
            for policy in ROW_POLICIES
        },
        **{
            ("cmp_mix", mix, mech): cell("+".join(benches), mech, 1500)
            for mix, benches in STANDARD_MIXES.items()
            for mech in CMP_MECHS
        },
        **{
            ("microbench", name, mech): cell(name, mech, 2000)
            for name in MICROBENCHMARKS
            for mech in PAIR
        },
    }


def run() -> Dict[str, object]:
    """Each study's result under its table stem, from one resolve.

    ``ablation_cpu_model`` maps a benchmark to its (OoO gain %,
    one-load gain %) per seed and ``ablation_policies`` to its (TH52
    cycles, Burst_DYN / TH52) per seed; ``ablation_mapping``,
    ``ablation_rowpolicy`` and ``microbench`` are table rows;
    ``cmp_mix`` holds its rows and each cell's stats (the per-core
    tenant records).
    """
    got = resolve(cells())

    def cycles(*key):
        return got[key][1].mem_cycles

    def ratio(*key, of, to):
        # Execution time of ``key + (of,)`` relative to ``key + (to,)``.
        return cycles(*key, of) / cycles(*key, to)

    def versus(stem, benches, variants):
        # (bench, variant, row hit rate, exec time vs the first variant)
        return [
            (bench, variant, got[stem, bench, variant][0].row_hit_rate,
             ratio(stem, bench, of=variant, to=variants[0]))
            for bench in benches
            for variant in variants
        ]

    def datasheet(name):
        inorder, burst = (got["microbench", name, mech][0] for mech in PAIR)
        return (
            name,
            inorder.mean_read_latency, inorder.row_hit_rate,
            inorder.effective_bandwidth_gbps(),
            burst.mean_read_latency, burst.row_hit_rate,
            burst.effective_bandwidth_gbps(),
            ratio("microbench", name, of="BkInOrder", to="Burst_TH"),
        )

    return {
        "ablation_cpu_model": {
            bench: [
                tuple(
                    (1.0 - ratio("ablation_cpu_model", bench, seed, core,
                                 of="Burst_TH", to="BkInOrder")) * 100.0
                    for core in ("ooo", "one_load")
                )
                for seed in SEEDS
            ]
            for bench in CPU_BENCHES
        },
        "ablation_mapping": versus(
            "ablation_mapping", MAPPING_BENCHES, MAPPINGS
        ),
        "ablation_policies": {
            bench: [
                (cycles("ablation_policies", bench, seed, "Burst_TH"),
                 ratio("ablation_policies", bench, seed,
                       of="Burst_DYN", to="Burst_TH"))
                for seed in SEEDS
            ]
            for bench in POLICY_BENCHES
        },
        "ablation_rowpolicy": versus(
            "ablation_rowpolicy", ROWPOLICY_BENCHES, ROW_POLICIES
        ),
        "cmp_mix": {
            "rows": [
                (mix,) + tuple(
                    ratio("cmp_mix", mix, of=mech, to="BkInOrder")
                    for mech in CMP_MECHS
                )
                for mix in STANDARD_MIXES
            ],
            "stats": {
                (mix, mech): got["cmp_mix", mix, mech][0]
                for mix in STANDARD_MIXES
                for mech in CMP_MECHS
            },
        },
        "microbench": [datasheet(name) for name in MICROBENCHMARKS],
    }


def _span(values, fmt="{:.1f}"):
    return f"{fmt.format(min(values))}-{fmt.format(max(values))}"


def tables(result) -> Dict[str, str]:
    """``{table stem: rendered table}``, one per study."""
    seeds = f"min-max over seeds {SEEDS[0]}-{SEEDS[-1]}"
    return {
        "ablation_cpu_model": format_table(
            ("benchmark", "Burst_TH gain, OoO core (%)",
             "Burst_TH gain, one outstanding load (LSQ=1) (%)"),
            [
                (bench, _span([ooo for ooo, _ in runs]),
                 _span([blocking for _, blocking in runs]))
                for bench, runs in result["ablation_cpu_model"].items()
            ],
            title=(
                "Ablation: reordering gain with and without memory-level "
                f"parallelism (§2 premise; {seeds}, "
                f"{scaled_accesses(3000)} accesses)"
            ),
        ),
        "ablation_mapping": format_table(
            ("benchmark", "mapping", "row hit rate",
             "exec time vs page_interleave"),
            result["ablation_mapping"],
            title="Ablation: address mapping schemes under Burst_TH (§7)",
        ),
        "ablation_policies": format_table(
            ("benchmark", "Burst_TH52 (cycles)", "Burst_DYN vs TH52"),
            [
                (bench, _span([th for th, _ in runs], "{}"),
                 _span([ratio for _, ratio in runs], "{:.3f}"))
                for bench, runs in result["ablation_policies"].items()
            ],
            title=(
                "Ablation: §7 dynamic threshold vs static Burst_TH52 "
                f"({seeds}, {scaled_accesses(4000)} accesses)"
            ),
        ),
        "ablation_rowpolicy": format_table(
            ("benchmark", "row policy", "row hit rate", "exec vs open page"),
            result["ablation_rowpolicy"],
            title=(
                "Ablation: open page vs CPA vs history-based predictor "
                "(paper Table 1 / ref [22]) under Burst_TH"
            ),
        ),
        "cmp_mix": format_table(
            ("mix",) + CMP_MECHS,
            result["cmp_mix"]["rows"],
            title=(
                "§6: 4-core multiprogrammed mixes, execution time "
                "normalized to BkInOrder"
            ),
        ),
        "microbench": format_table(
            ("pattern", "inorder lat", "inorder hit", "inorder GB/s",
             "burst lat", "burst hit", "burst GB/s", "speedup"),
            result["microbench"],
            title=(
                "Memory system characterisation "
                "(BkInOrder vs Burst_TH, Table 3 machine)"
            ),
        ),
    }


def render(result) -> str:
    """All six tables, one after another."""
    return "\n\n".join(tables(result).values())


def main() -> str:
    """Run with defaults and return the rendered text."""
    return render(run())


__all__ = ["SEEDS", "cells", "main", "render", "run", "tables"]
