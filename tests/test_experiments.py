"""Tests for the experiment harness (one per paper table/figure).

The heavyweight sweeps run here at a strongly reduced access count —
they assert structure and the robust orderings, not exact magnitudes
(EXPERIMENTS.md records the full-scale numbers).
"""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    fig1,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    saturation,
    table1,
)
from repro.errors import ConfigError
from repro.experiments.common import (
    MECHANISMS,
    cell,
    clear_cache,
    matrix,
    resolve,
    scaled_accesses,
)

#: Small but load-bearing subset for sweep smoke tests.
BENCHES = ("swim", "mcf")
N = 1200


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def test_registry_lists_every_paper_artifact():
    assert set(EXPERIMENTS) == {
        "table1",
        "fig1",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "saturation",
        "refresh_pressure",
        "fleet",
        "generations",
        "ablations",
    }
    for module in EXPERIMENTS.values():
        assert callable(module.run)
        assert callable(module.render)
        assert callable(module.main)


def test_table1_matches_paper_exactly():
    result = table1.run()
    assert result["measured"]["open_page"] == {
        "row_hit": 5,
        "row_empty": 10,
        "row_conflict": 15,
    }
    assert result["measured"]["close_page_autoprecharge"]["row_empty"] == 10
    assert "5" in table1.render(result)


def test_fig1_in_order_is_28_cycles():
    assert fig1.run_in_order() == 28


def test_fig1_out_of_order_matches_paper_within_one_cycle():
    assert abs(fig1.run_out_of_order() - 16) <= 1


def test_fig7_read_latency_reductions(config):
    result = fig7.run(benchmarks=BENCHES, accesses=N)
    base = result["BkInOrder"]["read_latency"]
    for mechanism in MECHANISMS[1:]:
        assert result[mechanism]["read_latency"] < base
    # Write postponers pay in write latency (§5.1).
    assert (
        result["Burst"]["write_latency"]
        > result["BkInOrder"]["write_latency"]
    )
    assert "Figure 7" in fig7.render(result)


def test_fig8_distributions_are_normalized():
    result = fig8.run(accesses=N)
    for mechanism, data in result.items():
        for key in ("reads", "writes"):
            total = sum(f for _, f in data[key])
            assert total == pytest.approx(1.0)
    assert "swim" in fig8.render(result)


def test_fig9_rates_sum_to_one():
    result = fig9.run(benchmarks=BENCHES, accesses=N)
    for mechanism, values in result.items():
        total = (
            values["row_hit"] + values["row_conflict"] + values["row_empty"]
        )
        assert total == pytest.approx(1.0)
        assert 0 < values["data_bus_util"] < 1
        assert 0 < values["addr_bus_util"] < values["data_bus_util"] + 1
    assert "Figure 9" in fig9.render(result)


def test_fig10_baseline_normalisation(config):
    result = fig10.run(benchmarks=BENCHES, accesses=N)
    for bench in BENCHES:
        assert result["normalized"][bench]["BkInOrder"] == 1.0
    assert set(result["average"]) == set(MECHANISMS)
    assert "normalized to BkInOrder" in fig10.render(result)


def test_fig10_headline_orderings():
    """The robust §5.3 claims at reduced scale: every reordering
    mechanism beats BkInOrder and Burst_TH is best overall."""
    result = fig10.run(accesses=1500)
    average = result["average"]
    for mechanism in MECHANISMS[1:]:
        assert average[mechanism] < 1.0, mechanism
    best = min(average, key=average.get)
    assert best == "Burst_TH"


def test_fig11_saturation_grows_with_threshold():
    result = fig11.run(accesses=N, thresholds=(0, 32, 64))
    sat = {
        name: data["write_queue_saturation"]
        for name, data in result.items()
    }
    assert sat["WP"] <= sat["TH32"] <= sat["RP"]
    assert "Figure 11" in fig11.render(result)


def test_fig12_write_latency_monotone_in_threshold():
    result = fig12.run(
        benchmarks=("swim",), sweep=("Burst", 0, 32, 64), accesses=N
    )
    assert (
        result["WP"]["write_latency"]
        <= result["TH32"]["write_latency"]
        <= result["RP"]["write_latency"]
    )
    assert result["best"]["variant"]
    assert "Figure 12" in fig12.render(result)


def test_saturation_ordering():
    result = saturation.run(accesses=2500)
    measured = {m: v["measured"] for m, v in result.items()}
    assert measured["Burst_WP"] <= measured["Burst_TH"]
    assert measured["Burst_TH"] <= measured["Burst"]
    assert measured["Burst"] <= measured["Burst_RP"]
    assert "swim" in saturation.render(result)


def test_generations_ddr5_write_drain():
    """The generation sweep reports the per-profile matrix and a
    positive DDR5 write-drain delta for Burst_BPW over Burst_TH."""
    from repro.dram.timing import DDR2_800, DDR5_4800
    from repro.experiments import generations

    result = generations.run(
        benchmarks=("swim",),
        generations=(DDR2_800, DDR5_4800),
        accesses=1000,
    )
    for cell in result.values():
        assert cell["row_hit"] < cell["row_empty"] < cell["row_conflict"]
        for values in cell["mechanisms"].values():
            assert values["read_latency"] > 0
            assert values["mem_cycles"] > 0
    ddr5 = result[DDR5_4800.name]["bpw_write_drain"]
    assert ddr5["write_latency_reduction_pct"] > 0
    rendered = generations.render(result)
    assert "Burst_BPW" in rendered
    assert "write-drain win" in rendered


def test_generations_on_write_free_cells(monkeypatch):
    """swim's first 500 records hold no write, so Burst_TH's mean write
    latency and store stalls are 0: each Burst_BPW cut over them is
    ``None``, rendered ``n/a`` (not a ZeroDivisionError, not 0.0)."""
    from repro.experiments import generations

    monkeypatch.delenv("REPRO_SCALE", raising=False)
    result = generations.run(["swim"], accesses=500)
    for entry in result.values():
        drain = entry["bpw_write_drain"]
        assert drain["write_latency_reduction_pct"] is None
        assert drain["store_stall_reduction_pct"] is None
        assert drain["execution_reduction_pct"] is not None
        assert entry["burst_th_gain_pct"] > 0
    assert "n/a" in generations.render(result)


def test_resolve_caches(config):
    run = {"swim": cell("swim", "Burst_TH", accesses=800)}
    stats_a = resolve(run)["swim"][0]
    stats_b = resolve(run)["swim"][0]
    assert stats_a is stats_b  # memoised
    runs = resolve(matrix(("swim",), ("Burst_TH",), accesses=800))
    assert runs[("swim", "Burst_TH")][0] is stats_a


def test_scaled_accesses_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    assert scaled_accesses(4000) == 2000
    monkeypatch.setenv("REPRO_SCALE", "0.0001")
    assert scaled_accesses(4000) == 500  # floor


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "-inf", "-2", "0"])
def test_scale_rejects_non_positive_or_non_finite(monkeypatch, value):
    """Each used to raise ValueError / OverflowError, or (-2, 0) run
    the 500-access floor silently."""
    monkeypatch.setenv("REPRO_SCALE", value)
    with pytest.raises(ConfigError, match="REPRO_SCALE"):
        scaled_accesses(4000)


def test_scale_accepts_any_spelling_of_a_positive_float(monkeypatch):
    for value in ("1", "1.0", " 2 ", "1e0"):
        monkeypatch.setenv("REPRO_SCALE", value)
        assert scaled_accesses(4000) == 4000 * float(value)


@pytest.mark.parametrize("value", ["x", "1.5", ""])
def test_seed_must_be_an_integer(monkeypatch, value):
    """An experiment cell takes the ``seed`` setting's parse error
    (the parser itself is covered in ``tests/test_knobs.py``)."""
    monkeypatch.setenv("REPRO_SEED", value)
    with pytest.raises(ConfigError, match="REPRO_SEED"):
        cell("swim", "FCFS")


def test_cli_list_and_run(capsys):
    from repro.experiments.cli import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig10" in out
    assert main(["run", "nonsense"]) == 2
    assert main(["run", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out


@pytest.mark.parametrize(
    "env, argv, message",
    [
        ({"REPRO_SCALE": "abc"}, ["run", "fig7"], "REPRO_SCALE"),
        ({"REPRO_JOBS": "x"}, ["run", "fig7"], "REPRO_JOBS"),
        ({}, ["cache", "gc", "--max-bytes", "-5"], "max_bytes"),
    ],
    ids=["bad-scale", "bad-jobs", "negative-max-bytes"],
)
def test_cli_typed_errors_exit_1_without_traceback(
    env, argv, message, monkeypatch, tmp_path, capsys
):
    """Each used to escape ``main`` as an uncaught ConfigError."""
    from repro.experiments.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
