"""Epoch-based 8B+ error budget (Section III-B).

Eight Reed-Solomon bytes used detect-only are *guaranteed* to catch
errors touching up to eight bytes; wider (8B+) errors escape with
probability 2^-64 per occurrence.  To bound mean time to SDC even
under the unreal worst case where *every* access produces an 8B+
error, Hetero-DMR counts detected errors per one-hour epoch and, past
a threshold of ~2.1 million, slows memory to specification for the
remainder of the epoch; the next epoch re-replicates and re-arms.

With the threshold set to 2^64 / (10^9 years in hours), the worst-case
mean time to SDC is one billion years — a one-over-one-million
addition to the 1000-year server SDC budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..ecc.policy import sdc_epoch_threshold
from ..obs import get_recorder

NS_PER_HOUR = 3_600_000_000_000.0


@dataclass
class EpochGuard:
    """Tracks detected errors per epoch and gates margin exploitation."""
    epoch_hours: float = 1.0
    threshold: int = field(default_factory=sdc_epoch_threshold)
    errors_this_epoch: int = 0
    total_errors: int = 0
    tripped_epochs: int = 0
    epochs_rolled: int = 0
    _epoch_start_ns: float = 0.0
    _max_now_ns: float = 0.0
    _tripped: bool = False

    @property
    def epoch_ns(self) -> float:
        return self.epoch_hours * NS_PER_HOUR

    def _roll_epoch(self, now_ns: float) -> None:
        # Time observed by the guard is monotone.  Events can arrive
        # with out-of-order timestamps (event-loop reordering, skew
        # between channels), so clamp to the high-water mark: a
        # timestamp before the epoch start would otherwise compute a
        # negative epoch count and silently never roll — nor may it
        # resurrect a previous epoch's error budget.
        if now_ns > self._max_now_ns:
            self._max_now_ns = now_ns
        epochs_elapsed = int(
            (self._max_now_ns - self._epoch_start_ns) / self.epoch_ns)
        if epochs_elapsed > 0:
            self._epoch_start_ns += epochs_elapsed * self.epoch_ns
            self.errors_this_epoch = 0
            self.epochs_rolled += epochs_elapsed
            self._tripped = False
            rec = get_recorder()
            if rec.enabled:
                rec.counter("epoch", "rolls", epochs_elapsed)
                rec.event("epoch", "epoch_roll", self._max_now_ns,
                          epochs_elapsed=epochs_elapsed,
                          epoch_start_ns=self._epoch_start_ns)

    def record_error(self, now_ns: float, count: int = 1) -> None:
        """Count ``count`` detected errors at time ``now_ns``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._roll_epoch(now_ns)
        self.errors_this_epoch += count
        self.total_errors += count
        if not self._tripped and self.errors_this_epoch > self.threshold:
            self._tripped = True
            self.tripped_epochs += 1
            rec = get_recorder()
            if rec.enabled:
                rec.counter("epoch", "trips")
                rec.event("epoch", "epoch_trip", now_ns,
                          errors_this_epoch=self.errors_this_epoch,
                          threshold=self.threshold)

    def margin_allowed(self, now_ns: float) -> bool:
        """May the system run faster than spec right now?"""
        self._roll_epoch(now_ns)
        return not self._tripped

    def to_state(self) -> Dict[str, object]:
        """Serializable snapshot of the guard for checkpointing.

        The dict is plain JSON types only so it can be embedded in a
        checksummed checkpoint file (see ``repro.recovery``).
        """
        return {
            "epoch_hours": self.epoch_hours,
            "threshold": self.threshold,
            "errors_this_epoch": self.errors_this_epoch,
            "total_errors": self.total_errors,
            "tripped_epochs": self.tripped_epochs,
            "epochs_rolled": self.epochs_rolled,
            "epoch_start_ns": self._epoch_start_ns,
            "max_now_ns": self._max_now_ns,
            "tripped": self._tripped,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "EpochGuard":
        """Rebuild a guard from :meth:`to_state` output.

        The restore is exact with respect to the durable state: counts
        are never rounded down, and a tripped epoch stays tripped until
        its boundary genuinely passes (the epoch start and high-water
        timestamps are restored too, so a restart inside a tripped
        epoch cannot mint a fresh error budget).
        """
        guard = cls(epoch_hours=float(state["epoch_hours"]),
                    threshold=int(state["threshold"]))
        guard.errors_this_epoch = int(state["errors_this_epoch"])
        guard.total_errors = int(state["total_errors"])
        guard.tripped_epochs = int(state["tripped_epochs"])
        guard.epochs_rolled = int(state["epochs_rolled"])
        guard._epoch_start_ns = float(state["epoch_start_ns"])
        guard._max_now_ns = float(state["max_now_ns"])
        guard._tripped = bool(state["tripped"])
        return guard
