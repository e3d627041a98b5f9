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


def _reverse_bits(value: int, bits: int) -> int:
    result = 0
    for _ in range(bits):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


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


class BitReversalMapping(PageInterleaveMapping):
    """Bit-reversal mapping (Shao & Davis, SCOPES'05 — paper ref [16]).

    The page-frame index (all bits above column+offset) is bit-reversed
    before the page-interleaved field split, scattering nearby pages —
    which would otherwise collide in the same bank under strided access
    — across channels, banks and ranks.
    """

    name = "bit_reversal"

    @property
    def _frame_bits(self) -> int:
        return (
            self.channel_bits + self.bank_bits + self.rank_bits + self.row_bits
        )

    def decode(self, address: int) -> DecodedAddress:
        self._check(address)
        low_bits = self.line_bits + self.column_bits
        low = address & ((1 << low_bits) - 1)
        frame = _reverse_bits(address >> low_bits, self._frame_bits)
        return super().decode((frame << low_bits) | low)

    def encode(self, decoded: DecodedAddress) -> int:
        linear = super().encode(decoded)
        low_bits = self.line_bits + self.column_bits
        low = linear & ((1 << low_bits) - 1)
        frame = _reverse_bits(linear >> low_bits, self._frame_bits)
        return (frame << low_bits) | low


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
        BitReversalMapping,
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
    "BitReversalMapping",
    "CachelineInterleaveMapping",
    "PageInterleaveMapping",
    "PermutationMapping",
    "make_mapping",
]
