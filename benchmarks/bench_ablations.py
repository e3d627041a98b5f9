"""Ablations beyond the paper: the six studies of
:mod:`repro.experiments.ablations`, resolved as one cell list.

Archives each study's table under ``results/<stem>.txt`` and checks
what each study is there to show.
"""

from benchmarks.conftest import run_once
from repro.analysis.fairness import per_source_read_latency
from repro.analysis.metrics import arithmetic_mean
from repro.experiments import ablations
from repro.experiments.common import scaled_accesses
from repro.settings import setting
from repro.workloads import make_trace
from repro.workloads.mixes import STANDARD_MIXES


def _check_cpu_model(results):
    for bench, runs in results.items():
        for seed, (ooo, blocking) in zip(ablations.SEEDS, runs):
            # With a single outstanding access there is almost nothing
            # to reorder: the gain collapses to a fraction of the OoO
            # gain.
            assert blocking < ooo, (bench, seed)
            assert blocking < max(ooo * 0.5, 5.0), (bench, seed)


def _check_mapping(rows):
    # Structural sanity: every mapping completes and yields sane rates.
    for _, _, hit_rate, ratio in rows:
        assert 0.0 <= hit_rate <= 1.0
        assert 0.2 < ratio < 6.0
    # Cacheline interleaving destroys row locality on the streaming
    # benchmark relative to page interleaving (textbook behaviour).
    swim_hits = {
        mapping: hit for bench, mapping, hit, _ in rows if bench == "swim"
    }
    assert (
        swim_hits["cacheline_interleave"] <= swim_hits["page_interleave"]
    )


def _check_policies(results):
    # The dynamic threshold tracks the static optimum closely on
    # average, for every seed.
    for index, seed in enumerate(ablations.SEEDS):
        dyn = [runs[index][1] for runs in results.values()]
        assert 0.9 < arithmetic_mean(dyn) < 1.1, f"seed {seed}"


def _check_rowpolicy(rows):
    cells = {(b, p): (h, r) for b, p, h, r in rows}
    # Streaming: CPA forfeits the row hits open page exploits.  (A
    # handful of hits can still occur when a preempting read finds the
    # row its preempted write just activated, §5.2.)
    assert cells[("swim", "open_page")][0] > 0.4
    assert cells[("swim", "close_page_autoprecharge")][0] < 0.01
    assert (
        cells[("swim", "close_page_autoprecharge")][1]
        > cells[("swim", "open_page")][1]
    )
    # The predictor tracks the better static policy on each workload
    # (within 20% — mispredictions on bursty streams cost a little,
    # but nothing like the 2x of picking the wrong static policy).
    for bench in ablations.ROWPOLICY_BENCHES:
        best_static = min(
            cells[(bench, "open_page")][1],
            cells[(bench, "close_page_autoprecharge")][1],
        )
        assert cells[(bench, "predictive")][1] <= best_static * 1.2, bench


def _check_cmp_mix(result):
    for (mix_name, mechanism), stats in result["stats"].items():
        benches = STANDARD_MIXES[mix_name]
        trace = make_trace(
            "+".join(benches), scaled_accesses(1500), setting("seed")
        )
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
    for row in result["rows"]:
        mix, *normalized = row
        by_mech = dict(zip(ablations.CMP_MECHS, normalized))
        # Burst_TH keeps a clear win over in-order on every mix and
        # never loses to Intel.
        assert by_mech["Burst_TH"] < 0.95, mix
        assert by_mech["Burst_TH"] <= by_mech["Intel"] * 1.02, mix


def _check_microbench(rows):
    by_name = {row[0]: row for row in rows}

    # Stream: near-pure row hits for both mechanisms.
    assert by_name["stream"][2] > 0.9
    assert by_name["stream"][5] > 0.9
    # Bank thrash: conflicts in order, rescued into hits by bursts.
    assert by_name["bank_thrash"][2] < 0.2
    assert by_name["bank_thrash"][5] > 0.8
    assert by_name["bank_thrash"][7] > 1.2  # real speedup
    # 256KB stride stays on one bank with monotone rows: no bursts to
    # form, latency far above stream for both.
    assert by_name["stride256k"][4] > by_name["stream"][4] * 2
    # 8KB stride spreads row-empties across banks: bank parallelism
    # keeps bandwidth high despite a zero hit rate.
    assert by_name["stride8k"][5] < 0.1
    assert by_name["stride8k"][6] > by_name["stride256k"][6]


def test_ablations(benchmark, archive):
    result = run_once(benchmark, ablations.run)
    for stem, text in ablations.tables(result).items():
        archive(stem, text)
    _check_cpu_model(result["ablation_cpu_model"])
    _check_mapping(result["ablation_mapping"])
    _check_policies(result["ablation_policies"])
    _check_rowpolicy(result["ablation_rowpolicy"])
    _check_cmp_mix(result["cmp_mix"])
    _check_microbench(result["microbench"])
