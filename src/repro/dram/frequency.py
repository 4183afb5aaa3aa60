"""Channel frequency-scaling state machine (Figures 9 and 10).

Hetero-DMR switches a channel between a *safe* state (manufacturer
specification; used for write mode and for error correction) and an
*unsafely fast* state (spec + margin; used for read mode).  Each switch
walks through JEDEC-compliant transition steps:

decreasing (Fig 9):  FAST -> PREPARE (drain, precharge all, modules to
self-refresh or idle) -> CHANGE (stop clock, program new frequency) ->
SYNC (restart clock, DLL relock, ZQ calibration) -> SAFE

increasing (Fig 10): SAFE -> PREPARE -> CHANGE -> SYNC -> FAST

The paper charges 1 us for the whole walk; we default to that and
split it across the three transition steps.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..obs import get_recorder

#: Total latency of one frequency transition (Section III-A1).
TRANSITION_NS = 1000.0

#: How the 1 us is apportioned across the three transition steps.
_STEP_FRACTIONS = (0.2, 0.3, 0.5)   # prepare, change, sync


class FrequencyState(enum.Enum):
    """States of the channel clock."""
    SAFE = "safe"                   # at manufacturer specification
    FAST = "fast"                   # spec + margin (unsafely fast)
    PREPARE = "prepare"             # quiescing the channel
    CHANGE = "change"               # clock stopped, MRS reprogramming
    SYNC = "sync"                   # DLL relock + ZQ calibration


class IllegalTransition(Exception):
    """Raised when a transition is requested from a transient state."""


@dataclass
class TransitionRecord:
    """One completed frequency transition, for auditing/tests."""
    start_ns: float
    end_ns: float
    from_state: FrequencyState
    to_state: FrequencyState
    steps: Tuple[Tuple[FrequencyState, float], ...]
    retried: bool = False


@dataclass
class FrequencyMachine:
    """Tracks a channel's clock state and performs timed transitions."""
    state: FrequencyState = FrequencyState.SAFE
    transition_ns: float = TRANSITION_NS
    history: List[TransitionRecord] = field(default_factory=list)
    transitions_to_fast: int = 0
    transitions_to_safe: int = 0
    #: Probability that any transition fails mid-walk and is retried
    #: from scratch (chaos-campaign knob); ``seed_faults`` arms the RNG.
    fault_rate: float = 0.0
    failed_transitions: int = 0
    _fault_armed: bool = False
    _fault_rng: Optional[random.Random] = None

    # -- fault injection -------------------------------------------------------

    def seed_faults(self, seed: int, fault_rate: float) -> None:
        """Enable probabilistic transition failures (deterministic)."""
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError("fault_rate must be a probability")
        self.fault_rate = fault_rate
        self._fault_rng = random.Random(seed)

    def inject_transition_fault(self) -> None:
        """Arm a one-shot transition failure: the next walk aborts in
        SYNC (DLL fails to relock / ZQ calibration times out) and is
        retried from scratch, doubling that transition's latency."""
        self._fault_armed = True

    def _draw_fault(self) -> bool:
        if self._fault_armed:
            self._fault_armed = False
            return True
        if self.fault_rate > 0.0 and self._fault_rng is not None:
            return self._fault_rng.random() < self.fault_rate
        return False

    def slow_down(self, now_ns: float) -> float:
        """FAST -> SAFE walk (Figure 9); returns completion time.
        A no-op when already SAFE."""
        if self.state is FrequencyState.SAFE:
            return now_ns
        end = self._walk(now_ns, FrequencyState.FAST, FrequencyState.SAFE)
        self.transitions_to_safe += 1
        return end

    def speed_up(self, now_ns: float) -> float:
        """SAFE -> FAST walk (Figure 10); returns completion time.
        A no-op when already FAST."""
        if self.state is FrequencyState.FAST:
            return now_ns
        end = self._walk(now_ns, FrequencyState.SAFE, FrequencyState.FAST)
        self.transitions_to_fast += 1
        return end

    def _walk(self, now_ns: float, expect: FrequencyState,
              target: FrequencyState) -> float:
        if self.state is not expect:
            raise IllegalTransition(
                "cannot transition from {} (expected {})".format(
                    self.state.value, expect.value))
        t = now_ns
        steps = []
        retried = self._draw_fault()
        if retried:
            # The failed walk reached SYNC before aborting; the retry
            # re-runs the whole walk, so the transition costs double.
            self.failed_transitions += 1
            t += self.transition_ns
        for frac, state in zip(
                _STEP_FRACTIONS,
                (FrequencyState.PREPARE, FrequencyState.CHANGE,
                 FrequencyState.SYNC)):
            self.state = state
            t += frac * self.transition_ns
            steps.append((state, t))
        self.state = target
        self.history.append(TransitionRecord(
            start_ns=now_ns, end_ns=t, from_state=expect, to_state=target,
            steps=tuple(steps), retried=retried))
        rec = get_recorder()
        if rec.enabled:
            rec.counter("freq", "transitions", direction=target.value)
            if retried:
                rec.counter("freq", "failed_transitions")
            rec.event("freq", "transition", now_ns,
                      from_state=expect.value, to_state=target.value,
                      end_ns=t, retried=retried)
        return t
