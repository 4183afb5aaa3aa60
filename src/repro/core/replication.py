"""Functional Hetero-DMR datapath: replication, detection, correction.

This module models the *correctness* side of Hetero-DMR end to end,
operating on real bytes through the Bamboo codec and the DRAM channel's
frequency state machine:

* opportunistic replication into the channel's Free Module when at
  least half the modules are free (Section III-E),
* broadcast writes keeping original == copy in one bus transaction,
* read mode serving all reads from the unsafely fast copies with
  detect-only ECC, falling back to the safely-operated original on any
  detected corruption (Sections III-B/III-C),
* write mode slowing the whole channel to specification first
  (Section III-A1), and
* the epoch guard capping worst-case SDC exposure.

The performance-side twin of this logic is
:class:`repro.core.policies.HeteroDMRPolicy`; this class is what the
reliability invariants in DESIGN.md are machine-checked against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..dram.channel import Channel
from ..dram.frequency import FrequencyState
from ..ecc.bamboo import BambooCodec, CodedBlock
from ..ecc.policy import (DecodeStatus, DetectAndCorrectPolicy,
                          DetectOnlyPolicy)
from .config import HeteroDMRConfig
from .epoch_guard import EpochGuard
from .margin_selection import choose_free_module


class ReplicationError(Exception):
    """Raised on datapath misuse (e.g., reading during write mode)."""


class TransientBusFault(ReplicationError):
    """A safe-original re-read failed transiently (bus glitch during
    the frequency transition).  Retried with bounded backoff; only a
    persistent fault escalates to :class:`UncorrectableError`."""


class UncorrectableError(Exception):
    """Both the copy and its original failed to decode — the same
    detected-uncorrected outcome a conventional ECC system reports."""


@dataclass
class ReplicationStats:
    reads: int = 0
    reads_from_copy: int = 0
    copy_errors_detected: int = 0
    corrections: int = 0
    correction_retries: int = 0
    writes: int = 0
    broadcast_writes: int = 0
    replications: int = 0


class HeteroDMRManager:
    """Drives one channel's Hetero-DMR datapath functionally."""

    def __init__(self, channel: Channel,
                 config: Optional[HeteroDMRConfig] = None,
                 margin_aware: bool = True,
                 telemetry=None):
        if len(channel.modules) < 2:
            raise ValueError("Hetero-DMR needs at least two modules")
        self.channel = channel
        self.config = config or HeteroDMRConfig()
        self.codec = BambooCodec()
        self.detect_only = DetectOnlyPolicy(self.codec)
        self.detect_correct = DetectAndCorrectPolicy(self.codec)
        self.epoch_guard = EpochGuard(
            epoch_hours=self.config.epoch_hours,
            threshold=self.config.epoch_error_threshold)
        self.margin_aware = margin_aware
        self.replication_active = False
        self.in_write_mode = True           # channel boots safe
        self.free_module_index: Optional[int] = None
        self.now_ns = 0.0
        self.stats = ReplicationStats()
        #: Optional repro.errors.telemetry.MarginAdvisor receiving a
        #: record per detected copy error (RAS accounting).
        self.telemetry = telemetry
        #: Optional hook ``(address, attempt) -> bool`` simulating a
        #: transient bus fault on a safe-original re-read; used by the
        #: chaos campaign.  ``None`` means the bus never glitches.
        self.bus_fault_hook: Optional[Callable[[int, int], bool]] = None
        #: Bounded-retry policy for the correction path's safe re-read.
        self.correction_max_retries = 3
        self.correction_backoff_ns = 50_000.0
        self.retry_seed = 0
        if channel.fast_timing is None:
            channel.fast_timing = self.config.fast_timing()

    # -- memory-utilization driven activation (Section III-E) ------------------------

    def observe_utilization(self, used_fraction: float) -> bool:
        """React to a memory-utilization change: activate replication
        when at least half the modules are free, deactivate (and fall
        back to spec operation) otherwise.  Returns the new state."""
        if not 0.0 <= used_fraction <= 1.0:
            raise ValueError("utilization must be in [0, 1]")
        should_replicate = used_fraction < self.config.replication_limit
        if should_replicate and not self.replication_active:
            self._activate()
        elif not should_replicate and self.replication_active:
            self._deactivate()
        return self.replication_active

    def _activate(self) -> None:
        margins = [m.true_margin_mts for m in self.channel.modules]
        idx = choose_free_module(margins, self.margin_aware)
        self.free_module_index = idx
        free = self.channel.modules[idx]
        # Margin-aware selection may pick the module currently holding
        # data to run fast; migrate its originals to a sibling module
        # first so the fast module holds only copies.
        if free.storage:
            target = next(m for i, m in enumerate(self.channel.modules)
                          if i != idx)
            for address, block in free.storage.items():
                if address not in target.storage:
                    target.write_block(address, block)
            free.scrub()
        free.holds_copies = True
        free.is_free = True
        # Replicate every existing block into the Free Module at the
        # same location (broadcast-address restriction, Section III-A).
        for i, module in enumerate(self.channel.modules):
            if i == idx:
                continue
            for address, block in module.storage.items():
                free.write_block(address, block)
                self.stats.replications += 1
        self.replication_active = True

    def _deactivate(self) -> None:
        if self.free_module_index is not None:
            free = self.channel.modules[self.free_module_index]
            free.holds_copies = False
            free.scrub()
        self.free_module_index = None
        self.replication_active = False
        if not self.in_write_mode:
            self.enter_write_mode()   # back to spec operation

    # -- mode switching (Section III-A) ------------------------------------------------

    def enter_write_mode(self) -> None:
        """Slow the channel to spec so originals can be written safely."""
        if self.in_write_mode:
            return
        self.now_ns = self.channel.to_safe(self.now_ns)
        self.in_write_mode = True

    def enter_read_mode(self) -> None:
        """Speed the channel up; originals go to self-refresh."""
        if not self.in_write_mode:
            return
        if not self.replication_active:
            return   # no copies -> must keep operating at spec
        if not self.epoch_guard.margin_allowed(self.now_ns):
            return   # error budget exhausted this epoch
        self.now_ns = self.channel.to_fast(self.now_ns)
        self.in_write_mode = False

    # -- datapath --------------------------------------------------------------------

    def write(self, address: int, data: Sequence[int]) -> None:
        """Store 64 bytes at a block address (must be in write mode).

        With replication active the write broadcasts to the original
        and the copy in one transaction; both share identical ECC bytes
        because detect-only decoding changes decode, not encode
        (Section III-C)."""
        if not self.in_write_mode:
            raise ReplicationError("writes only occur in write mode")
        block = self.codec.encode(list(data), address)
        original = self._original_module(address)
        original.write_block(address, block)
        self.stats.writes += 1
        if self.replication_active:
            free = self.channel.modules[self.free_module_index]
            free.write_block(address, block)
            self.stats.broadcast_writes += 1

    def read(self, address: int) -> Tuple[int, ...]:
        """Return the 64 data bytes at ``address``.

        In read mode with replication active, the copy is read unsafely
        fast and checked detect-only; any detected corruption triggers
        the Section III-C correction flow.  Otherwise the original is
        read at spec with conventional detect-and-correct ECC."""
        self.stats.reads += 1
        if self.replication_active and not self.in_write_mode:
            return self._read_via_copy(address)
        return self._read_original(address)

    def _read_via_copy(self, address: int) -> Tuple[int, ...]:
        free = self.channel.modules[self.free_module_index]
        block = free.read_block(address)
        if block is None:
            raise KeyError("no block stored at {:#x}".format(address))
        self.stats.reads_from_copy += 1
        result = self.detect_only.decode(block, address)
        if result.status is DecodeStatus.CLEAN:
            return result.data
        # Detected corruption in the copy (Section III-C): slow the
        # channel to spec, read the original, overwrite the copy.
        self.stats.copy_errors_detected += 1
        self.epoch_guard.record_error(self.now_ns)
        if self.telemetry is not None:
            self.telemetry.record(self.now_ns, free.module_id, address,
                                  corrected=True)
        self.now_ns = self.channel.to_safe(self.now_ns)
        data = self._read_original_with_retry(address)
        good = self.codec.encode(list(data), address)
        free.write_block(address, good)
        self.stats.corrections += 1
        if self.epoch_guard.margin_allowed(self.now_ns):
            self.now_ns = self.channel.to_fast(self.now_ns)
        else:
            self.in_write_mode = True
        return data

    def _read_original_with_retry(self, address: int) -> Tuple[int, ...]:
        """The correction path's safe re-read, hardened against
        transient bus faults: bounded retries under exponential backoff
        with deterministic seeded jitter (no wall clock, no shared RNG —
        the jitter depends only on ``(retry_seed, address, attempt)``,
        so identical runs stay byte-identical).  A fault persisting past
        ``correction_max_retries`` propagates as
        :class:`TransientBusFault`."""
        attempt = 0
        while True:
            try:
                if self.bus_fault_hook is not None and \
                        self.bus_fault_hook(address, attempt):
                    raise TransientBusFault(
                        "bus fault re-reading original {:#x} "
                        "(attempt {})".format(address, attempt))
                return self._read_original(address)
            except TransientBusFault:
                if attempt >= self.correction_max_retries:
                    raise
                backoff_ns = self.correction_backoff_ns * (2 ** attempt)
                rng = random.Random(self.retry_seed * 1_000_003 +
                                    address * 7919 + attempt)
                self.now_ns += backoff_ns * (1.0 + 0.25 * rng.random())
                self.stats.correction_retries += 1
                attempt += 1

    def _read_original(self, address: int) -> Tuple[int, ...]:
        original = self._original_module(address)
        block = original.read_block(address)
        if block is None:
            raise KeyError("no block stored at {:#x}".format(address))
        result = self.detect_correct.decode(block, address)
        if result.status is DecodeStatus.DETECTED_UNCORRECTED:
            raise UncorrectableError(
                "original block at {:#x} is uncorrectable".format(address))
        if result.status is DecodeStatus.CORRECTED:
            original.write_block(
                address, self.codec.encode(list(result.data), address))
        return result.data

    def _original_module(self, address: int):
        """The module holding (or designated to hold) the original of
        ``address``.  After a permanent-fault role swap the originals
        may live in any slot, so prefer the non-copy module that
        actually stores the block; new blocks go to the first
        original-holding slot."""
        candidates = [m for i, m in enumerate(self.channel.modules)
                      if i != self.free_module_index
                      and not m.holds_copies]
        for module in candidates:
            if address in module.storage:
                return module
        if candidates:
            return candidates[0]
        raise ReplicationError("channel has no original-holding module")

    # -- permanent-fault handling (Section III-E) -----------------------------------------

    def report_permanent_fault(self, module_index: int) -> bool:
        """Handle a permanent yet ECC-correctable fault in a module.

        If the faulty module is the Free Module, repeatedly detecting
        its (permanent) errors would cost a frequency transition per
        read; the paper's remedy is to remap the copies to the good
        module and the originals to the faulty one — the originals run
        at specification, where the fault stays ECC-correctable.
        Returns True when a role swap happened.
        """
        if not 0 <= module_index < len(self.channel.modules):
            raise IndexError("no module {}".format(module_index))
        if not self.replication_active or \
                module_index != self.free_module_index:
            return False
        was_read_mode = not self.in_write_mode
        self.enter_write_mode()
        faulty = self.channel.modules[module_index]
        good_index = next(i for i in range(len(self.channel.modules))
                          if i != module_index)
        good = self.channel.modules[good_index]
        # Swap contents and roles: originals -> faulty (safe, spec-
        # operated), copies -> good (fast).
        faulty_blocks = dict(faulty.storage)
        good_blocks = dict(good.storage)
        faulty.scrub()
        good.scrub()
        for addr, blk in good_blocks.items():
            faulty.write_block(addr, blk)
        for addr, blk in faulty_blocks.items():
            good.write_block(addr, blk)
        faulty.holds_copies = False
        faulty.is_free = False
        good.holds_copies = True
        good.is_free = True
        self.free_module_index = good_index
        if was_read_mode:
            self.enter_read_mode()
        return True

    # -- fault injection hooks ----------------------------------------------------------

    def corrupt_copy(self, address: int, raw_bytes: List[int]) -> None:
        """Inject an arbitrary 72-byte pattern into the stored copy."""
        if not self.replication_active:
            raise ReplicationError("no copies exist to corrupt")
        self.channel.modules[self.free_module_index].corrupt_block(
            address, raw_bytes)
