"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

# Property-based example budgets.  The default ("dev") profile keeps
# local runs quick; CI selects the deterministic 200-example profile
# with ``pytest --hypothesis-profile=ci`` (the ISSUE's differential
# coverage floor).  Tests that pin ``max_examples`` explicitly keep
# their own value regardless of profile.
settings.register_profile("ci", max_examples=200, deadline=None,
                          derandomize=True)
settings.register_profile("dev", max_examples=25, deadline=None)
settings.register_profile("deep", max_examples=1000, deadline=None)
settings.load_profile("dev")

from repro.controller.access import AccessType
from repro.mapping.base import DecodedAddress
from repro.mapping.schemes import make_mapping
from repro.sim.config import baseline_config
from repro.dram.timing import DDR2_800, FIG1_DEVICE, TimingParams
from dataclasses import replace


@pytest.fixture(scope="session", autouse=True)
def cache_outside_the_checkout(tmp_path_factory):
    """Keep every cell the suite simulates out of ``./.repro-cache``,
    so no run is served from an earlier one; tests that need their own
    store still point ``REPRO_CACHE_DIR`` elsewhere."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(
            "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache"))
        )
        yield


@pytest.fixture
def config():
    """The paper's Table 3 baseline machine."""
    return baseline_config()


@pytest.fixture
def quiet_config():
    """Baseline with auto refresh disabled, for deterministic timing."""
    timing = replace(DDR2_800, tREFI=None, tRFC=0)
    return baseline_config(timing=timing)


@pytest.fixture
def small_config():
    """A one-channel machine small enough for directed tests."""
    timing = replace(DDR2_800, tREFI=None, tRFC=0)
    return baseline_config(
        timing=timing, channels=1, ranks=2, banks=2, rows=64
    )


@pytest.fixture
def tiny_timing() -> TimingParams:
    """The 2-2-2 BL4 teaching device (no refresh)."""
    return FIG1_DEVICE


def make_request_stream(
    config, count, seed=0, write_frac=0.3, rows=16, gap=4
):
    """Random but reproducible (arrival, type, address) requests."""
    mapping = make_mapping(config)
    rng = random.Random(seed)
    requests = []
    cycle = 0
    for _ in range(count):
        decoded = DecodedAddress(
            rng.randrange(config.channels),
            rng.randrange(config.ranks),
            rng.randrange(config.banks),
            rng.randrange(min(rows, config.rows)),
            rng.randrange(config.columns_per_row),
        )
        op = (
            AccessType.WRITE
            if rng.random() < write_frac
            else AccessType.READ
        )
        requests.append((cycle, op, mapping.encode(decoded)))
        cycle += rng.randrange(gap)
    return requests
