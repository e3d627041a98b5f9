"""Generation matrix: fig7/table1 per device profile, the §6 Burst_TH
gain, the Burst_BPW drain.

Regenerates the :mod:`repro.experiments.generations` sweep (ISSUE 9)
and records the headline acceptance number in
``results/BENCH_generations.json``: on the DDR5-4800 profile the
bank-parallel write drain (``Burst_BPW``) must deliver a *measurable*
mean-write-latency improvement over plain ``Burst_TH`` without giving
back execution time.  It also checks the §6 claim on the sweep's own
cells: Burst_TH's gain over BkInOrder is larger on the newest
generation than on the oldest, and the row-conflict latency in cycles
grows down the ladder.

The JSON keeps the whole generation x mechanism matrix (Table 1
latencies, read/write latency, execution cycles, the per-generation
drain deltas) so CI can track how the win scales down the ladder the
same way ``BENCH_fleet.json`` tracks fairness drift.
"""

import json
import pathlib

from benchmarks.conftest import run_once
from repro.experiments import generations
from repro.settings import settings

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: The profile the drain was built for — the acceptance cell.
DDR5 = "DDR5-4800 40-39-39"


def _payload(result):
    """JSON summary: full matrix plus the headline DDR5 comparison."""
    matrix = {
        generation: {
            "row_hit": cell["row_hit"],
            "row_empty": cell["row_empty"],
            "row_conflict": cell["row_conflict"],
            "mechanisms": {
                mechanism: {
                    key: round(value, 4)
                    for key, value in values.items()
                }
                for mechanism, values in cell["mechanisms"].items()
            },
            "bpw_write_drain": {
                key: round(value, 4)
                for key, value in cell["bpw_write_drain"].items()
            },
        }
        for generation, cell in result.items()
    }
    ddr5 = result[DDR5]
    headline = {
        "write_latency_Burst_TH": round(
            ddr5["mechanisms"]["Burst_TH"]["write_latency"], 4
        ),
        "write_latency_Burst_BPW": round(
            ddr5["mechanisms"]["Burst_BPW"]["write_latency"], 4
        ),
        "write_latency_reduction_pct": round(
            ddr5["bpw_write_drain"]["write_latency_reduction_pct"], 4
        ),
        "execution_reduction_pct": round(
            ddr5["bpw_write_drain"]["execution_reduction_pct"], 4
        ),
    }
    return {
        "settings": settings().to_wire(),
        "headline": headline,
        "matrix": matrix,
    }


def test_generation_matrix(benchmark, archive):
    result = run_once(benchmark, generations.run)
    archive("generations", generations.render(result))

    payload = _payload(result)
    path = RESULTS_DIR / "BENCH_generations.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n{json.dumps(payload['headline'], indent=2)}\n[saved to {path}]")

    # Acceptance (ISSUE 9): a measurable DDR5 write-drain improvement
    # of Burst_BPW over Burst_TH — not a rounding artifact — that does
    # not cost execution time.
    ddr5 = result[DDR5]["bpw_write_drain"]
    assert ddr5["write_latency_reduction_pct"] > 5.0, (
        "Burst_BPW must measurably cut DDR5 mean write latency vs "
        f"Burst_TH (got {ddr5['write_latency_reduction_pct']:.1f}%)"
    )
    assert ddr5["execution_reduction_pct"] >= 0.0, (
        "the DDR5 write drain must not give back execution time "
        f"(got {ddr5['execution_reduction_pct']:.1f}%)"
    )
    # §6 shape: the drain matters more on DDR5 (BL16, huge write
    # recovery in bus cycles) than on the DDR2-era profile the paper
    # measured — the win grows down the ladder.
    ddr2 = result["DDR2-800 PC2-6400 5-5-5"]["bpw_write_drain"]
    assert (
        ddr5["write_latency_reduction_pct"]
        > ddr2["write_latency_reduction_pct"]
    ), "the DDR5 write-drain win must exceed the DDR2-800 win"
    # The §6 claim: the newest generation shows a larger reordering
    # gain than the oldest.
    gains = [cell["burst_th_gain_pct"] for cell in result.values()]
    assert gains[-1] > gains[0], gains
    # And conflict latency in cycles is monotone across the ladder.
    conflicts = [cell["row_conflict"] for cell in result.values()]
    assert conflicts == sorted(conflicts)
