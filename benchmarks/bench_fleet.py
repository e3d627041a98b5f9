"""Fleet mode: adversarial tenant matrix, QoS vs plain Burst_TH.

Not a paper figure — the 2007 paper predates multi-tenant controllers.
This regenerates the fleet scenario matrix and records the headline
acceptance number in ``results/BENCH_fleet.json``: the victim
tenant's max slowdown on the row-buffer-hog scenario must be
*measurably lower* under the write-quota scheduler (``Burst_QW``) than
under plain ``Burst_TH``.

The JSON keeps the whole matrix (weighted speedup, max slowdown, Jain
over per-tenant solo/shared speedups per cell) so CI can track fairness
drift over time the same way ``BENCH_engine.json`` tracks engine
speedups, and records the per-tenant access count and seed it ran at.
"""

import json
import pathlib

from benchmarks.conftest import run_once
from repro.experiments import fleet
from repro.experiments.common import scaled_accesses
from repro.settings import settings

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Scenarios whose victim (the last source) QoS exists to protect.
ADVERSARIAL = ("hog_vs_reader", "flooder_vs_reader")


def _payload(result):
    """JSON summary: full matrix plus the headline victim comparison."""
    matrix = {
        scenario: {
            mechanism: {
                "weighted_speedup": round(cell["weighted_speedup"], 4),
                "max_slowdown": round(cell["max_slowdown"], 4),
                "jain_index": round(cell["jain_index"], 4),
                "cycles": cell["cycles"],
            }
            for mechanism, cell in per_mechanism.items()
        }
        for scenario, per_mechanism in result.items()
    }
    headline = {}
    for scenario in ADVERSARIAL:
        cells = result[scenario]
        headline[scenario] = {
            "victim_max_slowdown_Burst_TH": round(
                cells["Burst_TH"]["max_slowdown"], 4
            ),
            "victim_max_slowdown_Burst_QW": round(
                cells["Burst_QW"]["max_slowdown"], 4
            ),
            "reduction": round(
                cells["Burst_TH"]["max_slowdown"]
                - cells["Burst_QW"]["max_slowdown"],
                4,
            ),
        }
    return {
        "accesses_per_tenant": scaled_accesses(fleet.ACCESSES),
        "seed": settings().seed,
        "settings": settings().to_wire(),
        "headline": headline,
        "matrix": matrix,
    }


def test_fleet_matrix(benchmark, archive):
    result = run_once(benchmark, fleet.run)
    archive("fleet", fleet.render(result))

    payload = _payload(result)
    path = RESULTS_DIR / "BENCH_fleet.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n{json.dumps(payload['headline'], indent=2)}\n[saved to {path}]")

    # Acceptance: the write-quota scheduler measurably reduces the
    # victim's max slowdown on the row-buffer-hog scenario (the hog's
    # row-hit writeback echo is what QW caps), and on the write
    # flooder it was built for.
    for scenario in ADVERSARIAL:
        cells = result[scenario]
        assert (
            cells["Burst_QW"]["max_slowdown"]
            < cells["Burst_TH"]["max_slowdown"]
        ), (
            f"Burst_QW must reduce the victim's max slowdown on "
            f"{scenario}: QW {cells['Burst_QW']['max_slowdown']:.3f} "
            f"vs TH {cells['Burst_TH']['max_slowdown']:.3f}"
        )
