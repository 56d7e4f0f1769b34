"""Recovery configuration: how hard the runtime fights a faulty fabric.

A :class:`ReliabilityPolicy` is installed with its fault plan
(:func:`repro.faults.fault_plan`, ``FAULTS.install``) and read from there
alone, because faults fire only while a plan is installed.  Two layers
consume it:

* **transport** (``repro.mpisim``) — retry budget and exponential
  backoff for injected transient send/recv failures, the corruption
  handling mode for checksum mismatches, and the per-operation receive
  deadline that turns a silently dropped message into a prompt, typed
  :class:`~repro.mpisim.errors.DeadlineError` instead of a ride on the
  global deadlock watchdog;
* **engine** (``repro.core.engine``) — retry budget and backoff for
  exchange rounds that fail at entry.

The in-transit consumer's frame deadline is not a fault setting; it is
``PipelineConfig.frame_deadline_s``.  The policy is a plain frozen
dataclass with no behaviour beyond :meth:`backoff_s`, so it pickles into
forked ranks without import-order constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Corruption handling modes (``ReliabilityPolicy.corruption``).
CORRUPTION_RERETRIEVE = "reretrieve"
CORRUPTION_RAISE = "raise"

_CORRUPTION_MODES = (CORRUPTION_RERETRIEVE, CORRUPTION_RAISE)


@dataclass(frozen=True)
class ReliabilityPolicy:
    """Retry/deadline/corruption configuration for one redistribution stack.

    ``max_retries``
        Attempts *beyond the first* allowed per operation (transport) and
        per round (engine) before :class:`RetriesExhaustedError` is raised.
    ``backoff_base_s`` / ``backoff_factor`` / ``backoff_cap_s``
        Exponential backoff between attempts:
        ``min(cap, base * factor**attempt)`` seconds.
    ``corruption``
        ``"reretrieve"`` heals a checksum mismatch from the sender's
        retained pristine payload (one simulated retransmission);
        ``"raise"`` surfaces :class:`CorruptionError` instead.
    ``op_deadline_s``
        Per-operation receive deadline while a fault plan is installed;
        ``None`` falls back to the fabric's global deadlock timeout.
    """

    max_retries: int = 3
    backoff_base_s: float = 0.001
    backoff_factor: float = 2.0
    backoff_cap_s: float = 0.05
    corruption: str = CORRUPTION_RERETRIEVE
    op_deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.corruption not in _CORRUPTION_MODES:
            raise ValueError(
                f"unknown corruption mode {self.corruption!r} "
                f"(use one of {_CORRUPTION_MODES})"
            )
        if self.op_deadline_s is not None and self.op_deadline_s <= 0:
            raise ValueError("op_deadline_s must be positive or None")

    def backoff_s(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        return min(
            self.backoff_cap_s,
            self.backoff_base_s * self.backoff_factor ** max(0, attempt - 1),
        )
