"""Concrete address mapping schemes.

All schemes share the field widths computed by
:class:`~repro.mapping.base.AddressMapping`; they differ only in how
the fields are laid out or permuted inside the physical address.
"""

from __future__ import annotations

from typing import Dict, Type

from repro.errors import MappingError
from repro.mapping.base import AddressMapping, DecodedAddress
from repro.sim.config import SystemConfig


class PageInterleaveMapping(AddressMapping):
    """The paper's baseline (Table 3): consecutive pages hit new banks.

    Layout, least significant first::

        [line offset][column][channel][bank][rank][row]

    A whole SDRAM page (row) of sequential addresses stays in one bank,
    maximising row hits for streaming access; the next page moves to
    the next channel/bank/rank, providing bank parallelism.
    """

    name = "page_interleave"

    def decode(self, address: int) -> DecodedAddress:
        self._check(address)
        shift = self.line_bits
        column = (address >> shift) & ((1 << self.column_bits) - 1)
        shift += self.column_bits
        channel = (address >> shift) & ((1 << self.channel_bits) - 1)
        shift += self.channel_bits
        bank = (address >> shift) & ((1 << self.bank_bits) - 1)
        shift += self.bank_bits
        rank = (address >> shift) & ((1 << self.rank_bits) - 1)
        shift += self.rank_bits
        row = (address >> shift) & ((1 << self.row_bits) - 1)
        return DecodedAddress(channel, rank, bank, row, column)

    def encode(self, decoded: DecodedAddress) -> int:
        self._check_coords(decoded)
        shift = self.line_bits
        address = decoded.column << shift
        shift += self.column_bits
        address |= decoded.channel << shift
        shift += self.channel_bits
        address |= decoded.bank << shift
        shift += self.bank_bits
        address |= decoded.rank << shift
        shift += self.rank_bits
        address |= decoded.row << shift
        return address


class CachelineInterleaveMapping(AddressMapping):
    """Consecutive cache lines rotate across channels/banks/ranks.

    Layout, least significant first::

        [line offset][channel][bank][rank][column][row]

    Maximises bank parallelism at the cost of row locality — the
    classic opposite of page interleaving, useful as an ablation.
    """

    name = "cacheline_interleave"

    def decode(self, address: int) -> DecodedAddress:
        self._check(address)
        shift = self.line_bits
        channel = (address >> shift) & ((1 << self.channel_bits) - 1)
        shift += self.channel_bits
        bank = (address >> shift) & ((1 << self.bank_bits) - 1)
        shift += self.bank_bits
        rank = (address >> shift) & ((1 << self.rank_bits) - 1)
        shift += self.rank_bits
        column = (address >> shift) & ((1 << self.column_bits) - 1)
        shift += self.column_bits
        row = (address >> shift) & ((1 << self.row_bits) - 1)
        return DecodedAddress(channel, rank, bank, row, column)

    def encode(self, decoded: DecodedAddress) -> int:
        self._check_coords(decoded)
        shift = self.line_bits
        address = decoded.channel << shift
        shift += self.channel_bits
        address |= decoded.bank << shift
        shift += self.bank_bits
        address |= decoded.rank << shift
        shift += self.rank_bits
        address |= decoded.column << shift
        shift += self.column_bits
        address |= decoded.row << shift
        return address


class PermutationMapping(PageInterleaveMapping):
    """Permutation-based page interleaving (Zhang et al., MICRO'00 —
    paper ref [23]).

    The bank index is XORed with the low bits of the row index, so rows
    that map to the same bank under plain page interleaving (and would
    conflict in the row buffer) spread over different banks.  The XOR
    is an involution, making encode/decode trivially inverse.
    """

    name = "permutation"

    def _xor_bank(self, decoded: DecodedAddress) -> DecodedAddress:
        if not self.bank_bits:
            return decoded
        mask = (1 << self.bank_bits) - 1
        return DecodedAddress(
            decoded.channel,
            decoded.rank,
            decoded.bank ^ (decoded.row & mask),
            decoded.row,
            decoded.column,
        )

    def decode(self, address: int) -> DecodedAddress:
        return self._xor_bank(super().decode(address))

    def encode(self, decoded: DecodedAddress) -> int:
        self._check_coords(decoded)
        return super().encode(self._xor_bank(decoded))


_SCHEMES: Dict[str, Type[AddressMapping]] = {
    scheme.name: scheme
    for scheme in (
        PageInterleaveMapping,
        CachelineInterleaveMapping,
        PermutationMapping,
    )
}


def make_mapping(config: SystemConfig, name: str = None) -> AddressMapping:
    """Instantiate the mapping scheme named in ``config`` (or ``name``)."""
    key = name or config.mapping
    try:
        scheme = _SCHEMES[key]
    except KeyError:
        raise MappingError(
            f"unknown mapping {key!r}; available: {sorted(_SCHEMES)}"
        ) from None
    return scheme(config)


__all__ = [
    "CachelineInterleaveMapping",
    "PageInterleaveMapping",
    "PermutationMapping",
    "make_mapping",
]
