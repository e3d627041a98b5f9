"""Property-based tests for address mapping schemes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping import schemes
from repro.mapping.base import DecodedAddress
from repro.mapping.schemes import (
    CachelineInterleaveMapping,
    PageInterleaveMapping,
    PermutationMapping,
)
from repro.sim.config import baseline_config

CONFIG = baseline_config()
SCHEMES = [
    scheme(CONFIG)
    for scheme in (
        PageInterleaveMapping,
        CachelineInterleaveMapping,
        PermutationMapping,
    )
]

#: art's footprint, the smallest of the SPEC profiles.
REGION = 8 * 1024**2

lines = st.integers(min_value=0, max_value=(4 * 1024**3 // 64) - 1)
coords = st.builds(
    DecodedAddress,
    channel=st.integers(0, CONFIG.channels - 1),
    rank=st.integers(0, CONFIG.ranks - 1),
    bank=st.integers(0, CONFIG.banks - 1),
    row=st.integers(0, CONFIG.rows - 1),
    column=st.integers(0, CONFIG.columns_per_row - 1),
)


@given(line=lines)
@settings(max_examples=300)
def test_decode_encode_roundtrip(line):
    address = line * 64
    for mapping in SCHEMES:
        assert mapping.encode(mapping.decode(address)) == address


@given(decoded=coords)
@settings(max_examples=300)
def test_encode_decode_roundtrip(decoded):
    for mapping in SCHEMES:
        assert mapping.decode(mapping.encode(decoded)) == decoded


@given(decoded=coords)
@settings(max_examples=200)
def test_encoded_addresses_line_aligned_and_in_range(decoded):
    for mapping in SCHEMES:
        address = mapping.encode(decoded)
        assert address % CONFIG.line_bytes == 0
        assert 0 <= address < mapping.capacity


@given(line=lines, offset=st.integers(1, 63))
@settings(max_examples=200)
def test_offset_bits_do_not_change_coordinates(line, offset):
    for mapping in SCHEMES:
        assert mapping.decode(line * 64) == mapping.decode(line * 64 + offset)


@given(base=st.integers(0, (CONFIG.capacity_bytes - REGION) // 64))
@settings(max_examples=25)
def test_small_region_reaches_every_bank(base):
    """Under every shipped mapping, any contiguous 8 MB region reaches
    every (channel, rank, bank) of the baseline machine.

    The region is sampled every 61 lines: an odd stride shorter than a
    row visits every row of it and every residue of the low line bits.
    """
    assert {m.name for m in SCHEMES} == set(schemes._SCHEMES)
    banks = CONFIG.channels * CONFIG.ranks * CONFIG.banks
    start = base * 64
    for mapping in SCHEMES:
        reached = {
            mapping.decode(address).bank_key()
            for address in range(start, start + REGION, 61 * 64)
        }
        assert len(reached) == banks, mapping.name


@given(a=lines, b=lines)
@settings(max_examples=200)
def test_mapping_is_injective(a, b):
    """Distinct lines never collide in device coordinates."""
    if a == b:
        return
    for mapping in SCHEMES:
        assert mapping.decode(a * 64) != mapping.decode(b * 64)
