"""Physical-address interleaving (Table IV: XOR-based mapping similar
to Intel Skylake [67]).

A line address is decomposed into channel, rank, bank, row, and column
fields; the bank index is XOR-hashed with low row bits so that strided
streams spread across banks instead of thrashing one row.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cache.cache import LINE_BYTES


@dataclass(frozen=True)
class MemLocation:
    """A decoded DRAM coordinate."""
    channel: int
    rank: int
    bank: int
    row: int
    column: int


@dataclass(frozen=True)
class AddressMapping:
    """Field widths of the interleaving, lowest-order first:
    line offset | channel | column | bank | rank | row."""
    channels: int = 1
    ranks_per_channel: int = 4
    banks_per_rank: int = 16
    columns_per_row: int = 128   # 64-byte lines per 8 KB row
    xor_bank_hash: bool = True

    def __post_init__(self) -> None:
        for name in ("channels", "ranks_per_channel", "banks_per_rank",
                     "columns_per_row"):
            value = getattr(self, name)
            if value <= 0 or value & (value - 1):
                raise ValueError(
                    "{} must be a positive power of two".format(name))

    def decode(self, address: int) -> MemLocation:
        """Decode a byte address into its DRAM coordinate."""
        line = address // LINE_BYTES
        channel = line % self.channels
        line //= self.channels
        column = line % self.columns_per_row
        line //= self.columns_per_row
        bank = line % self.banks_per_rank
        line //= self.banks_per_rank
        rank = line % self.ranks_per_channel
        line //= self.ranks_per_channel
        row = line
        if self.xor_bank_hash:
            bank ^= row % self.banks_per_rank
        return MemLocation(channel, rank, bank, row, column)
