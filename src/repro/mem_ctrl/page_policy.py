"""Row-buffer page policies (Table IV: hybrid policy with a 200-cycle
timeout interval).

* ``open``   — rows stay open until a conflicting activate.
* ``closed`` — rows are precharged right after each access.
* ``hybrid`` — rows stay open for a timeout window after their last
  access; when no request arrives within the window the bank
  autoprecharges, converting later same-row accesses into cheaper
  closed-bank misses instead of conflicts.

The simulator applies the policy lazily: before an access classifies
against the bank, :meth:`apply` retroactively closes a row whose
timeout elapsed in the past (the precharge happened while the bank was
idle, so its tRP is already paid).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cache.hierarchy import CPU_GHZ
from ..dram.bank import Bank


@dataclass(frozen=True)
class PagePolicy:
    """Row-buffer management policy."""
    kind: str = "hybrid"             # 'open' | 'closed' | 'hybrid'
    timeout_cycles: int = 200        # hybrid timeout (CPU cycles)
    cpu_ghz: float = CPU_GHZ

    def __post_init__(self) -> None:
        if self.kind not in ("open", "closed", "hybrid"):
            raise ValueError("unknown page policy {!r}".format(self.kind))
        if self.timeout_cycles <= 0:
            raise ValueError("timeout must be positive")
        timeout_ns = self.timeout_cycles / self.cpu_ghz
        object.__setattr__(self, "_timeout_ns", timeout_ns)
        # Every kind is one rule: a row idle for longer than
        # ``close_after_ns`` is closed.  The scheduler's scan inlines it.
        object.__setattr__(self, "close_after_ns", {
            "open": float("inf"), "closed": float("-inf"),
            "hybrid": timeout_ns}[self.kind])

    @property
    def timeout_ns(self) -> float:
        return self._timeout_ns

    def apply(self, bank: Bank, now_ns: float) -> None:
        """Close the bank's row if the policy would have by ``now_ns``.
        The precharge happened while the bank was idle, so its tRP is
        already paid and only the row-buffer state changes."""
        if bank.open_row is not None and \
                now_ns - bank.last_access_ns > self.close_after_ns:
            bank.open_row = None
