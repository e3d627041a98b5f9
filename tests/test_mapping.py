"""Unit tests for the address mapping schemes."""

import pytest

from repro.errors import MappingError
from repro.mapping.base import DecodedAddress
from repro.mapping.schemes import (
    CachelineInterleaveMapping,
    PageInterleaveMapping,
    PermutationMapping,
    make_mapping,
)
from repro.sim.config import baseline_config

ALL_SCHEMES = (
    PageInterleaveMapping,
    CachelineInterleaveMapping,
    PermutationMapping,
)


@pytest.fixture
def config():
    return baseline_config()


def test_capacity_matches_table3(config):
    mapping = make_mapping(config)
    assert mapping.capacity == 4 * 1024**3  # 4GB (Table 3)
    assert config.capacity_bytes == mapping.capacity


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_roundtrip_samples(scheme, config):
    mapping = scheme(config)
    for address in range(0, mapping.capacity, mapping.capacity // 257):
        address &= ~(config.line_bytes - 1)
        decoded = mapping.decode(address)
        assert mapping.encode(decoded) == address


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_decode_rejects_out_of_range(scheme, config):
    mapping = scheme(config)
    with pytest.raises(MappingError):
        mapping.decode(-1)
    with pytest.raises(MappingError):
        mapping.decode(mapping.capacity)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_encode_rejects_bad_coordinates(scheme, config):
    mapping = scheme(config)
    with pytest.raises(MappingError):
        mapping.encode(DecodedAddress(99, 0, 0, 0, 0))
    with pytest.raises(MappingError):
        mapping.encode(DecodedAddress(0, 0, 0, config.rows, 0))


def test_page_interleave_layout(config):
    """Consecutive lines share a row; consecutive pages rotate banks."""
    mapping = PageInterleaveMapping(config)
    first = mapping.decode(0)
    same_row = mapping.decode(config.line_bytes)
    assert same_row.row == first.row
    assert same_row.bank_key() == first.bank_key()
    assert same_row.column == first.column + 1
    next_page = mapping.decode(config.row_bytes)
    assert next_page.channel != first.channel  # channel bit is lowest


def test_cacheline_interleave_rotates_every_line(config):
    mapping = CachelineInterleaveMapping(config)
    first = mapping.decode(0)
    second = mapping.decode(config.line_bytes)
    assert second.channel != first.channel


def test_permutation_xors_bank_with_row(config):
    mapping = PermutationMapping(config)
    plain = PageInterleaveMapping(config)
    for address in (0, 1 << 20, 123 << 13, mapping.capacity - 64):
        expected = plain.decode(address)
        got = mapping.decode(address)
        assert got.bank == expected.bank ^ (expected.row & (config.banks - 1))
        assert got.row == expected.row
        assert got.channel == expected.channel


def test_permutation_spreads_conflicting_rows(config):
    """Rows that collide under page interleaving spread over banks."""
    plain = PageInterleaveMapping(config)
    perm = PermutationMapping(config)
    stride = config.row_bytes * config.channels * config.banks * config.ranks
    plain_banks = {
        plain.decode(i * stride).bank_key() for i in range(4)
    }
    perm_banks = {perm.decode(i * stride).bank_key() for i in range(4)}
    assert len(plain_banks) == 1
    assert len(perm_banks) == 4


def test_make_mapping_by_name(config):
    assert isinstance(make_mapping(config), PageInterleaveMapping)
    assert isinstance(
        make_mapping(config, "permutation"), PermutationMapping
    )
    with pytest.raises(MappingError):
        make_mapping(config, "nope")


def test_line_offset_ignored_on_decode(config):
    mapping = make_mapping(config)
    assert mapping.decode(0) == mapping.decode(config.line_bytes - 1)
