"""Unit tests for the system configuration (paper Table 3)."""

import pytest

from repro.errors import ConfigError
from repro.sim.config import (
    CPUConfig,
    SystemConfig,
    baseline_config,
)


def test_baseline_matches_table3():
    cfg = baseline_config()
    assert cfg.channels == 2
    assert cfg.ranks == 4
    assert cfg.banks == 4
    assert cfg.total_banks == 32
    assert cfg.capacity_bytes == 4 * 1024**3
    assert cfg.pool_size == 256
    assert cfg.write_queue_size == 64
    assert cfg.threshold == 52
    assert cfg.row_policy == "open_page"
    assert cfg.mapping == "page_interleave"
    assert cfg.line_bytes == 64
    cpu = cfg.cpu
    assert cpu.freq_ghz == 4.0
    assert cpu.width == 8
    assert cpu.rob_entries == 196
    assert cpu.lsq_entries == 32


def test_clock_ratio_is_ten():
    """4 GHz CPU over a 400 MHz DDR2-800 memory clock."""
    assert baseline_config().cpu_cycles_per_mem_cycle == 10


def test_columns_per_row():
    assert baseline_config().columns_per_row == 128


def test_override_via_kwargs():
    cfg = baseline_config(channels=1, threshold=10)
    assert cfg.channels == 1
    assert cfg.threshold == 10


def test_with_threshold():
    cfg = baseline_config().with_threshold(40)
    assert cfg.threshold == 40
    assert cfg.channels == 2


def test_rejects_bad_values():
    with pytest.raises(ConfigError):
        baseline_config(channels=0)
    with pytest.raises(ConfigError):
        baseline_config(channels=3)  # not a power of two
    with pytest.raises(ConfigError):
        baseline_config(row_policy="sometimes_open")
    with pytest.raises(ConfigError):
        baseline_config(threshold=65)
    with pytest.raises(ConfigError):
        baseline_config(write_queue_size=512)  # exceeds pool
    with pytest.raises(ConfigError):
        baseline_config(row_bytes=100)  # not line multiple


def test_cpu_config_validation():
    with pytest.raises(ConfigError):
        CPUConfig(width=0)
    with pytest.raises(ConfigError):
        CPUConfig(freq_ghz=0)
    with pytest.raises(ConfigError):
        CPUConfig(rob_entries=-1)


def test_configs_are_hashable_for_memoisation():
    assert hash(baseline_config()) == hash(baseline_config())
    assert baseline_config() == SystemConfig()
    assert baseline_config(threshold=8) != baseline_config()


def test_to_dict_is_one_shared_read_only_dict():
    """Equal configs share one dict; it serialises as ``asdict`` did
    (so cell keys do not move) and refuses changes at every level."""
    import copy
    import json
    from dataclasses import asdict

    cfg = baseline_config(threshold=40)
    data = cfg.to_dict()
    assert baseline_config(threshold=40).to_dict() is data
    assert json.dumps(data, sort_keys=True) == json.dumps(asdict(cfg), sort_keys=True)
    for change in (
        lambda: data.__setitem__("threshold", 1),
        lambda: data["timing"].update(tCL=1),
        lambda: data.pop("threshold"),
        lambda: data["cpu"].clear(),
    ):
        with pytest.raises(TypeError, match="read-only"):
            change()
    assert data["threshold"] == 40
    copied = copy.deepcopy(data)
    copied["timing"]["tCL"] = 1
    mutable = dict(data, threshold=8)
    assert SystemConfig.from_dict(mutable) == cfg.with_threshold(8)
    assert SystemConfig.from_dict(data) == cfg
