"""Address mapping base machinery: bit-field geometry and the ABC."""

from __future__ import annotations

import abc
from typing import NamedTuple

from repro.errors import MappingError
from repro.sim.config import SystemConfig


class DecodedAddress(NamedTuple):
    """Device coordinates of one cache-line-sized memory block."""

    channel: int
    rank: int
    bank: int
    row: int
    column: int

    def bank_key(self):
        """Hashable identity of the target bank across the system."""
        return (self.channel, self.rank, self.bank)


def _bits(value: int) -> int:
    """Bit width of a power-of-two field size (0 for size 1)."""
    return value.bit_length() - 1


class AddressMapping(abc.ABC):
    """Translates physical addresses to/from device coordinates.

    Concrete schemes define :meth:`decode` and :meth:`encode`; both are
    exact inverses, which the property-based tests verify for every
    scheme.  Addresses are byte addresses; the low ``line_bits`` offset
    bits are ignored on decode and zero on encode.
    """

    name = "abstract"

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.line_bits = _bits(config.line_bytes)
        self.column_bits = _bits(config.columns_per_row)
        # Sub-channels are independent physical channels to the
        # mapping: addresses stripe across channels * sub_channels.
        self.channel_bits = _bits(config.total_channels)
        self.rank_bits = _bits(config.ranks)
        self.bank_bits = _bits(config.banks)
        self.row_bits = _bits(config.rows)
        #: Rows per subarray (SARP geometry): subarrays partition a
        #: bank's rows into equal contiguous groups.
        self.subarray_rows = config.rows // config.subarrays
        self.address_bits = (
            self.line_bits
            + self.column_bits
            + self.channel_bits
            + self.rank_bits
            + self.bank_bits
            + self.row_bits
        )
        #: Total bytes addressable under this mapping.
        self.capacity = 1 << self.address_bits

    def _check(self, address: int) -> int:
        if address < 0 or address >= self.capacity:
            raise MappingError(
                f"address {address:#x} outside capacity {self.capacity:#x}"
            )
        return address

    def _check_coords(self, decoded: DecodedAddress) -> None:
        cfg = self.config
        ok = (
            0 <= decoded.channel < cfg.total_channels
            and 0 <= decoded.rank < cfg.ranks
            and 0 <= decoded.bank < cfg.banks
            and 0 <= decoded.row < cfg.rows
            and 0 <= decoded.column < cfg.columns_per_row
        )
        if not ok:
            raise MappingError(f"coordinates out of range: {decoded}")

    @abc.abstractmethod
    def decode(self, address: int) -> DecodedAddress:
        """Physical byte address -> device coordinates."""

    @abc.abstractmethod
    def encode(self, decoded: DecodedAddress) -> int:
        """Device coordinates -> physical byte address (line-aligned)."""


__all__ = ["AddressMapping", "DecodedAddress"]
