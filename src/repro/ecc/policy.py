"""ECC decode policies (Section III-B).

Conventional server controllers use the eight per-block ECC bytes to
both detect and correct errors; Hetero-DMR instead spends the entire
ECC budget on *detection* when reading copies, because a full decode can
miscorrect in the presence of too many errors and cause silent data
corruption.  This module exposes both policies behind one interface so
the memory controller can swap them per access type, plus the SDC
arithmetic the paper uses to size its epoch threshold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from .bamboo import BambooCodec, CodedBlock
from .reed_solomon import DecodeFailure, undetected_error_probability

#: Hours in one billion years, the paper's target mean time to SDC.
BILLION_YEARS_HOURS = 1_000_000_000 * 365 * 24

#: Server mean-time-to-SDC target the paper cites (Bossen, 2002).
SERVER_MTTSDC_YEARS = 1000


class DecodeStatus(enum.Enum):
    """Outcome classes of a policy decode."""
    CLEAN = "clean"
    CORRECTED = "corrected"
    DETECTED_UNCORRECTED = "detected_uncorrected"


@dataclass(frozen=True)
class PolicyResult:
    """Result of decoding one block under a policy.

    ``data`` is None when the policy refuses to hand data upward
    (detected error under detect-only, or uncorrectable error).
    """
    status: DecodeStatus
    data: Optional[Tuple[int, ...]]
    corrected_positions: Tuple[int, ...] = ()


class DetectOnlyPolicy:
    """Use all eight ECC bytes purely for detection (copies).

    Guaranteed to flag any error touching up to eight of the 72 stored
    bytes; wider errors slip through with probability 2^-64 per access.
    """

    def __init__(self, codec: Optional[BambooCodec] = None):
        self.codec = codec or BambooCodec()

    def decode(self, block: CodedBlock, address: int = 0) -> PolicyResult:
        if self.codec.check(block, address):
            return PolicyResult(DecodeStatus.CLEAN, block.data)
        return PolicyResult(DecodeStatus.DETECTED_UNCORRECTED, None)


class DetectAndCorrectPolicy:
    """Conventional decode: correct up to four bad bytes (originals)."""

    def __init__(self, codec: Optional[BambooCodec] = None):
        self.codec = codec or BambooCodec()

    def decode(self, block: CodedBlock, address: int = 0) -> PolicyResult:
        if self.codec.check(block, address):
            return PolicyResult(DecodeStatus.CLEAN, block.data)
        try:
            repaired, positions = self.codec.correct(block, address)
        except DecodeFailure:
            return PolicyResult(DecodeStatus.DETECTED_UNCORRECTED, None)
        return PolicyResult(DecodeStatus.CORRECTED, repaired.data,
                            tuple(positions))


def sdc_epoch_threshold(target_mttsdc_hours: float = BILLION_YEARS_HOURS,
                        nparity: int = 8) -> int:
    """Per-hour 8B+ error budget bounding mean time to SDC.

    Section III-B: a random wide error evades eight RS bytes with
    probability 2^-64, so a system encounters one SDC per 2^64 detected
    8B+ errors; dividing 2^64 by one billion years expressed in hours
    yields the ~2.1M errors/hour epoch threshold.
    """
    if target_mttsdc_hours <= 0:
        raise ValueError("target_mttsdc_hours must be positive")
    escapes_per_sdc = 1.0 / undetected_error_probability(nparity)
    return int(escapes_per_sdc / target_mttsdc_hours)
