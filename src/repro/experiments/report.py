"""Generate EXPERIMENTS.md — paper-vs-measured for every artifact.

``repro-experiments report [path]`` runs the full harness (table1,
fig1, fig7-fig12, saturation, generations, ablations) at one
``REPRO_SCALE`` in one process (so the matrix runs are shared through
the memoisation cache) and writes a markdown report recording, for
every table and figure of the paper: what the paper says, what this
reproduction measures, and whether the shape target holds; only the
hand-built benches' tables are pasted from ``benchmarks/results/``.
The checked-in EXPERIMENTS.md is produced by exactly this command.
"""

from __future__ import annotations

import time
from typing import List

from repro.experiments import (
    ablations,
    fig1,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    generations,
    saturation,
    table1,
)
from repro.experiments.common import scaled_accesses
from repro.settings import setting


def _block(text: str) -> str:
    return "```\n" + text + "\n```"


def build_report() -> str:
    """Run everything and render the full markdown report."""
    started = time.time()
    sections: List[str] = []

    sections.append(
        "# EXPERIMENTS — paper vs. measured\n\n"
        "Reproduction of every table and figure in the evaluation of "
        "*A Burst Scheduling Access Reordering Mechanism* (Shao & "
        "Davis, HPCA 2007).  Generated by `repro-experiments report` "
        f"with `REPRO_SCALE={setting('scale')}` "
        f"({scaled_accesses()} accesses per benchmark run, seed "
        f"{setting('seed')}).\n\n"
        "The paper's absolute numbers come from 2-billion-instruction "
        "SPEC CPU2000 runs on M5; ours from calibrated synthetic miss "
        "streams (DESIGN.md §2).  The reproduction targets are the "
        "paper's *shapes*: who wins, by roughly what factor, and "
        "where crossovers fall.\n"
    )

    # ------------------------------------------------------------ table 1
    t1 = table1.run()
    sections.append(
        "## Table 1 — possible SDRAM access latencies\n\n"
        "Paper: open-page hit/empty/conflict = tCL / tRCD+tCL / "
        "tRP+tRCD+tCL = **5 / 10 / 15** cycles on DDR2 5-5-5; CPA "
        "empty = 10.  **Exact match required and achieved:**\n\n"
        + _block(table1.render(t1))
    )

    # ------------------------------------------------------------ figure 1
    f1 = fig1.run()
    sections.append(
        "## Figure 1 — scheduling example (28 vs 16 cycles)\n\n"
        f"Paper: 28 cycles in order, 16 out of order.  Measured: "
        f"**{f1['in_order_cycles']} / {f1['out_of_order_cycles']}** — "
        "the in-order schedule matches exactly; our burst scheduler "
        "finds a one-cycle-tighter interleaving than the hand-drawn "
        "schedule.\n\n" + _block(fig1.render(f1))
    )

    # ------------------------------------------------------------ figure 7
    f7 = fig7.run()
    reductions = ", ".join(
        f"{m} {f7[m]['read_reduction_pct']:.0f}%"
        for m in f7
        if m != "BkInOrder"
    )
    sections.append(
        "## Figure 7 — average read/write latency\n\n"
        "Paper: all out-of-order mechanisms cut read latency 26-47%; "
        "Burst_RP lowest read latency; RowHit lowest write latency "
        "among reordering mechanisms; Intel/Burst write latency grows "
        "(write postponement), the _RP variants more, Burst_WP pulls "
        f"it back down.  Measured read reductions: {reductions}.\n\n"
        + _block(fig7.render(f7))
    )

    # ------------------------------------------------------------ figure 8
    f8 = fig8.run()
    sections.append(
        "## Figure 8 — outstanding accesses (swim)\n\n"
        "Paper: Intel and Burst pile up outstanding writes; Burst_RP "
        "most of all; Burst_WP keeps the write queue near empty.  "
        "Measured mean outstanding writes: "
        + ", ".join(
            f"{m} {d['mean_writes']:.1f}" for m, d in f8.items()
        )
        + ".\n\n" + _block(fig8.render(f8))
    )

    # ------------------------------------------------------------ figure 9
    f9 = fig9.run()
    sections.append(
        "## Figure 9 — row states and bus utilisation\n\n"
        "Paper: reordering raises row hit rate, with RowHit / "
        "Burst_WP / Burst_TH highest (they search write queues too); "
        "read preemption raises the row-empty rate; address bus "
        "utilisation barely moves while data bus spans 31-42% with "
        "Burst_TH highest (effective bandwidth 2.0 -> 2.7 GB/s).\n\n"
        + _block(fig9.render(f9))
    )

    # ----------------------------------------------------------- figure 10
    f10 = fig10.run()
    avg = f10["average"]
    sections.append(
        "## Figure 10 — normalized execution time (headline)\n\n"
        "Paper averages: RowHit 0.83, Intel 0.88, Burst 0.86, "
        "Burst_RP 0.83, Burst_WP 0.81, **Burst_TH 0.79** (21% "
        "reduction; 6% over RowHit, 11% over Intel, 7% over "
        "Intel_RP).  Measured averages: "
        + ", ".join(f"{m} {v:.3f}" for m, v in avg.items())
        + f".  Burst_TH reduction "
        f"**{f10['reductions_pct']['Burst_TH']:.1f}%**, beating "
        f"RowHit by {f10['burst_th_vs']['RowHit']:.1f}%, Intel by "
        f"{f10['burst_th_vs']['Intel']:.1f}%, Intel_RP by "
        f"{f10['burst_th_vs']['Intel_RP']:.1f}%.\n\n"
        "Per §5.3, read preemption dominates on mcf/parser/perlbmk/"
        "facerec and write piggybacking on gcc/lucas — both visible "
        "in the per-benchmark rows below.\n\n"
        "Known deviation: our RowHit lands mid-pack rather than "
        "3rd-best; its paper advantage on moderately loaded "
        "benchmarks depends on M5 workload details our synthetic "
        "streams reproduce only partially (see DESIGN.md §5).\n\n"
        + _block(fig10.render(f10))
    )

    # ----------------------------------------------------------- figure 11
    f11 = fig11.run()
    sections.append(
        "## Figure 11 — outstanding accesses vs threshold (swim)\n\n"
        "Paper: peak outstanding writes grow with the threshold; "
        "saturation <7% below TH48, 14% at TH56, 70% at RP.  Measured "
        "saturations: "
        + ", ".join(
            f"{name} {d['write_queue_saturation']:.1%}"
            for name, d in f11.items()
        )
        + ".\n\n" + _block(fig11.render(f11))
    )

    # ----------------------------------------------------------- figure 12
    f12 = fig12.run()
    best = f12["best"]["variant"]
    sections.append(
        "## Figure 12 — threshold sweep\n\n"
        "Paper: read latency falls then rises past TH40; write "
        "latency rises monotonically; execution time is minimised at "
        f"TH52.  Measured optimum: **{best}** — the paper's own curve "
        "is nearly flat through TH32-TH56, and so is ours.\n\n"
        + _block(fig12.render(f12))
    )

    # ------------------------------------------------------------ §5.1 sat
    sat = saturation.run()
    sections.append(
        "## §5.1 — write queue saturation (swim)\n\n"
        "Paper: Intel 24%, Burst 46%, Burst_RP 70%, Burst_WP 2%, "
        "Burst_TH 9% — ordering RP > Burst > Intel > TH > WP.  "
        "Measured: "
        + ", ".join(
            f"{m} {v['measured']:.1%}" for m, v in sat.items()
        )
        + " — same ordering, compressed magnitudes.\n\n"
        + _block(saturation.render(sat))
    )

    # ---------------------------------------------------- beyond the paper
    tables = {
        "generations": generations.render(generations.run()),
        **ablations.tables(ablations.run()),
    }
    sections.append(
        "## Beyond the paper — ablations and extensions\n\n"
        "The `generations` and `ablations` experiments at this report's "
        "scale, each table under its `benchmarks/results` stem:\n\n"
        + "\n\n".join(f"### {stem}\n\n" + _block(text)
                      for stem, text in tables.items())
    )
    sections.append(_archived_section())

    sections.append(
        "## Tables 2-4\n\n"
        "* **Table 2** (transaction priority) is the implementation "
        "of `repro.core.scheduler.BurstScheduler.schedule`; "
        "`tests/test_txsched.py` asserts each priority level.\n"
        "* **Table 3** (baseline machine) is "
        "`repro.sim.config.baseline_config()`; `tests/test_config.py` "
        "asserts every row.\n"
        "* **Table 4** (simulated mechanisms) is "
        "`repro.controller.registry.MECHANISMS`; "
        "`tests/test_registry_analysis.py` asserts the roster.\n\n"
        f"Report generated in {time.time() - started:.0f}s.\n"
    )

    return "\n\n".join(filter(None, sections)) + "\n"


#: Outputs of the hand-built benches, archived by ``pytest
#: benchmarks/``; embedded in the report when present.
_ARCHIVED_FILES = (
    ("ablation_priority", "Table 2 priority table vs naive issue"),
    ("ablation_fsb", "explicit front side bus (Table 3 assumption)"),
    ("service", "job service: sharded, preempted, cache-served fig7 (§15)"),
)


def _archived_section() -> str:
    """Embed the hand-built benches' archived tables, when present."""
    from pathlib import Path

    # src/repro/experiments/report.py -> parents[2] is src/, whose
    # parent is the repository root in the editable (src-layout) case.
    repo_root = Path(__file__).resolve().parents[2].parent
    candidates = [
        repo_root / "benchmarks" / "results",
        Path("benchmarks") / "results",  # installed elsewhere: try cwd
    ]
    directory = next((c for c in candidates if c.is_dir()), None)
    if directory is None:
        return ""
    blocks = []
    for stem, caption in _ARCHIVED_FILES:
        path = directory / f"{stem}.txt"
        if path.is_file():
            blocks.append(f"### {caption}\n\n" + _block(path.read_text().strip()))
    if not blocks:
        return ""
    return (
        "## Archived bench output\n\n"
        "Hand-built benches that are not experiments, archived under "
        "`benchmarks/results/` by `pytest benchmarks/ --benchmark-only` "
        "at the scale of the run that last wrote them, not this "
        "report's:\n\n" + "\n\n".join(blocks)
    )


def write_report(path: str = "EXPERIMENTS.md") -> str:
    """Build the report and write it to ``path``; returns the path."""
    with open(path, "w") as handle:
        handle.write(build_report())
    return path


__all__ = ["build_report", "write_report"]
