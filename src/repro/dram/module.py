"""DIMM (module) model.

A module bundles physical organization (ranks, chips per rank, chip
density), the hidden *true* frequency margin used by the
characterization testbench, and — for the functional reliability tests
— block storage holding :class:`~repro.ecc.bamboo.CodedBlock` values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..ecc.bamboo import CodedBlock
from .rank import Rank


@dataclass
class ModuleSpec:
    """Static description of a server RDIMM."""
    brand: str = "A"
    spec_data_rate_mts: int = 3200
    chips_per_rank: int = 9          # x8 chips incl. the ECC chip: 8+1
    ranks_per_module: int = 2
    chip_density_gbit: int = 8
    manufacture_year: int = 2020
    condition: str = "new"           # new | in-production | refurbished

    @property
    def total_chips(self) -> int:
        return self.chips_per_rank * self.ranks_per_module


@dataclass
class Module:
    """A DIMM installed in a channel slot.

    ``true_margin_mts`` is the module's real frequency margin — the
    property the characterization testbench tries to *measure*; the
    architecture side only ever sees measured margins.
    """
    spec: ModuleSpec
    module_id: str = "M0"
    true_margin_mts: int = 800
    ranks: List[Rank] = field(default_factory=list)
    #: Functional storage: block address -> coded block.
    storage: Dict[int, CodedBlock] = field(default_factory=dict)
    is_free: bool = False            # currently unused by software?
    holds_copies: bool = False       # designated Free Module under Hetero-DMR

    def __post_init__(self) -> None:
        if not self.ranks:
            self.ranks = [Rank(i) for i in range(self.spec.ranks_per_module)]

    # -- functional storage -----------------------------------------------------

    def write_block(self, address: int, block: CodedBlock) -> None:
        """Store a coded block at a block address."""
        self.storage[address] = block

    def read_block(self, address: int) -> Optional[CodedBlock]:
        """Fetch the coded block at ``address`` (None when never written)."""
        return self.storage.get(address)

    def corrupt_block(self, address: int, raw_bytes: List[int]) -> None:
        """Overwrite the stored bytes at ``address`` with an arbitrary
        (corrupt) pattern — the error injector's entry point."""
        existing = self.storage.get(address)
        if existing is None:
            raise KeyError("no block stored at {:#x}".format(address))
        self.storage[address] = existing.with_stored_bytes(raw_bytes)

    def scrub(self) -> None:
        """Drop all stored blocks (module freed / powered down)."""
        self.storage.clear()

    # -- self-refresh shortcuts ---------------------------------------------------

    @property
    def in_self_refresh(self) -> bool:
        return all(r.in_self_refresh for r in self.ranks)

    def enter_self_refresh(self, now_ns: float) -> float:
        """Put every rank of the module into self-refresh."""
        t = now_ns
        for rank in self.ranks:
            t = max(t, rank.enter_self_refresh(now_ns))
        return t

    def exit_self_refresh(self, now_ns: float) -> float:
        """Wake every rank of the module from self-refresh."""
        t = now_ns
        for rank in self.ranks:
            t = max(t, rank.exit_self_refresh(now_ns))
        return t
