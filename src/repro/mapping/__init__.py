"""SDRAM address mapping schemes.

An address mapping translates a physical (cache-line-aligned) address
into the device coordinates ``(channel, rank, bank, row, column)``.
The paper's baseline uses *page interleaving* (Table 3); §7 points at
bit-reversal [16] and permutation-based [23] mappings as future work;
the permutation-based one is implemented as well and exercised by the
mapping ablation (bit reversal is not: DESIGN.md §4 says why).
"""

from repro.mapping.base import AddressMapping, DecodedAddress
from repro.mapping.schemes import (
    CachelineInterleaveMapping,
    PageInterleaveMapping,
    PermutationMapping,
    make_mapping,
)

__all__ = [
    "AddressMapping",
    "CachelineInterleaveMapping",
    "DecodedAddress",
    "PageInterleaveMapping",
    "PermutationMapping",
    "make_mapping",
]
