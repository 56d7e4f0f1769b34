"""The process-wide fault layer the transport consults (``FAULTS``).

``repro.mpisim`` (``comm``, ``transport``) guards every injection point
with a single attribute check — ``if FAULTS.active:`` — exactly the ``TRACER.enabled`` /
``TRANSFER_COUNTERS.enabled`` discipline, so an uninstalled fault layer
costs one attribute load per operation on the hot path.

When a :class:`~repro.faults.plan.FaultPlan` is installed the layer:

* counts each rank's transport operations (the plan's op index);
* kills a rank with :class:`~repro.mpisim.errors.RankCrashError` at its
  scheduled op;
* stalls operations (message delay), tells the sender to discard outgoing
  messages (drop — the transport's discard releases a zero-copy sender so
  only the *receiver* pays, with a typed per-op deadline timeout), and
  simulates transient send/recv failures
  which it heals in place with the installed
  :class:`~repro.faults.policy.ReliabilityPolicy`'s
  retry-with-exponential-backoff (raising
  :class:`~repro.mpisim.errors.RetriesExhaustedError` when the budget is
  blown);
* seals every staged NumPy payload with a CRC32 checksum at send time and
  verifies it at delivery; an injected corruption is healed by
  re-retrieving the sender's retained pristine payload (one simulated
  retransmission) or raised as
  :class:`~repro.mpisim.errors.CorruptionError`, per policy.

Every injected fault and recovery is counted in ``FAULTS.stats``, a
:class:`~repro.obs.metrics.MetricsRegistry`, and — when tracing is
enabled — recorded as a ``fault.*`` span, so chaos runs are fully
visible in Perfetto traces and metrics summaries.

Import discipline: this module is imported by the ``repro.mpisim`` modules at
module level, so it must not import ``repro.mpisim`` at *its* module level
(the error types are imported lazily inside the raising functions).
"""

from __future__ import annotations

import time
import zlib
from contextlib import contextmanager
from typing import Any, Iterator, Optional

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..obs.tracer import TRACER
from .plan import FaultPlan
from .policy import CORRUPTION_RERETRIEVE, ReliabilityPolicy

__all__ = [
    "FAULTS",
    "FaultLayer",
    "INJECTED",
    "clear_fault_plan",
    "fault_plan",
    "install_fault_plan",
]


def _errors():
    # Deferred: repro.mpisim imports this module, so importing
    # repro.mpisim here at module level would be a cycle.  Injection only
    # happens at runtime, long after both packages are initialised.
    from ..mpisim import errors

    return errors


def _sleep(duration_s: float, span: str, /, **attrs: Any) -> None:
    """Stall the calling rank, under a ``fault.*`` span when tracing."""
    if TRACER.enabled:
        with TRACER.span(span, **attrs):
            time.sleep(duration_s)
    else:
        time.sleep(duration_s)


def _mark(span: str, /, **attrs: Any) -> None:
    """Record an instantaneous ``fault.*`` event when tracing."""
    if TRACER.enabled:
        with TRACER.span(span, **attrs):
            pass


#: The counters that count an injected fault (the rest count recoveries
#: and staged payloads); a run's ``injected`` total sums these.
INJECTED = (
    "delays", "drops", "transient_send", "transient_recv",
    "corruptions", "round_faults", "crashes", "alloc_faults",
)


class FaultLayer:
    """Singleton consulted by the transport; see module docstring."""

    def __init__(self) -> None:
        #: The one-attribute hot-path guard.  True iff a plan is installed.
        self.active = False
        self.plan: Optional[FaultPlan] = None
        self.policy = ReliabilityPolicy()
        self._reset()

    def _reset(self) -> None:
        self.stats = MetricsRegistry()
        # Per-rank transport op counters and drop counts.  Each rank is one
        # thread and only touches its own key, so plain dicts are safe.
        self._ops: dict[int, int] = {}
        self._drops: dict[int, int] = {}
        # Staging allocations keep a separate per-rank sequence so memory
        # chaos never shifts the op indices scripted transport faults target.
        self._allocs: dict[int, int] = {}
        #: Ranks this layer has killed with ``RankCrashError`` (read by
        #: ``SpmdHangError`` diagnostics to report them as crashed, not stuck).
        self._crashed: set[int] = set()
        #: rank -> human description of a retry currently in progress
        #: (read by ``SpmdHangError`` diagnostics).
        self.pending_retries: dict[int, str] = {}

    # -- lifecycle -----------------------------------------------------------

    def install(self, plan: FaultPlan, policy: Optional[ReliabilityPolicy] = None) -> None:
        """Install ``plan`` (resetting op counters and stats) and activate."""
        self.plan = plan
        self.policy = policy if policy is not None else ReliabilityPolicy()
        self._reset()
        self.active = True

    def clear(self) -> None:
        """Deactivate; keeps the last stats readable for post-mortems."""
        self.active = False
        self.plan = None
        self.pending_retries = {}

    def op_count(self, rank: int) -> int:
        return self._ops.get(rank, 0)

    def crashed_ranks(self) -> frozenset[int]:
        """Ranks this layer has killed (world ranks)."""
        return frozenset(self._crashed)

    def diagnostics(self) -> str:
        """Fault-injection state for hang reports: plan, ops, pending retries."""
        if not self.active or self.plan is None:
            return "no fault plan installed"
        ops = ", ".join(f"r{r}:{n}" for r, n in sorted(self._ops.items()))
        pending = "; ".join(
            f"rank {r} retrying {what}" for r, what in sorted(self.pending_retries.items())
        ) or "none"
        return (
            f"{self.plan.summary()}; ops=[{ops}]; pending retries: {pending}; "
            f"stats: {dict(sorted(self.stats.snapshot().items()))}"
        )

    # -- injection points ----------------------------------------------------

    def _next_op(self, rank: int) -> int:
        op = self._ops.get(rank, 0)
        self._ops[rank] = op + 1
        return op

    def _check_crash(self, rank: int, op: int) -> None:
        assert self.plan is not None
        if self.plan.crashes(rank, op):
            self.stats.incr("crashes")
            self._crashed.add(rank)
            _mark("fault.crash", rank=rank, op=op)
            raise _errors().RankCrashError(
                f"rank {rank} crashed by fault plan at op {op} "
                f"({self.plan.summary()})"
            )

    def _delay(self, rank: int, op: int) -> None:
        assert self.plan is not None
        seconds = self.plan.delay_s(rank, op)
        if seconds > 0:
            self.stats.incr("delays")
            _sleep(seconds, "fault.delay", rank=rank, op=op, seconds=seconds)

    def _heal(
        self, rank: int, failures: int, what: str, noun: str, error: str,
        span: str, **attrs: Any,
    ) -> None:
        """``failures`` failed attempts healed in place by retry + exponential
        backoff, or — past the retry budget — the typed ``error``."""
        allowed = 1 + self.policy.max_retries
        if failures >= allowed:
            self.stats.incr("retries", allowed - 1)
            self.stats.incr("retries_exhausted")
            raise getattr(_errors(), error)(
                f"rank {rank} {what}: {failures} consecutive {noun} failures "
                f"exceed the retry budget ({self.policy.max_retries})"
            )
        self.pending_retries[rank] = f"{what} ({failures} attempt(s))"
        try:
            for attempt in range(1, failures + 1):
                self.stats.incr("retries")
                backoff = self.policy.backoff_s(attempt)
                _sleep(backoff, span, rank=rank, attempt=attempt, backoff_s=backoff, **attrs)
        finally:
            self.pending_retries.pop(rank, None)

    def _transient(self, point: str, rank: int, op: int) -> None:
        """Simulate a transient send/recv failure healed by retry+backoff."""
        assert self.plan is not None
        failures = self.plan.transient_failures(point, rank, op)
        if failures:
            self.stats.incr(f"transient_{point}", failures)
            self._heal(
                rank, failures, f"{point} op {op}", "transient",
                "RetriesExhaustedError", "fault.retry", point=point, op=op,
            )

    def on_send(self, rank: int, message: Any) -> bool:
        """Consult the plan before posting; returns False when the caller
        must drop (discard) the message instead of posting it."""
        assert self.plan is not None
        op = self._next_op(rank)
        tag = getattr(message, "tag", None)
        self._check_crash(rank, op)
        self._delay(rank, op)
        self._transient("send", rank, op)
        if self.plan.drop(rank, op, tag, self._drops.get(rank, 0)):
            self._drops[rank] = self._drops.get(rank, 0) + 1
            self.stats.incr("drops")
            _mark("fault.drop", rank=rank, op=op, tag=tag)
            # The caller discards the message through the transport, which
            # releases a rendezvous sender / shm segment / budget charge.
            return False
        self._seal(rank, op, tag, message)
        return True

    def on_recv(self, rank: int) -> Optional[float]:
        """Consult the plan before a blocking receive; returns the per-op
        deadline (seconds) the fabric should honour, or ``None``."""
        assert self.plan is not None
        op = self._next_op(rank)
        self._check_crash(rank, op)
        self._delay(rank, op)
        self._transient("recv", rank, op)
        return self.policy.op_deadline_s

    def on_deliver(self, message: Any) -> None:
        """Verify a sealed payload; heal or raise on checksum mismatch."""
        checksum = getattr(message, "checksum", None)
        if checksum is None:
            return
        payload = message.payload
        if not isinstance(payload, np.ndarray):
            return
        if zlib.crc32(payload.tobytes()) == checksum:
            return
        self.stats.incr("corruption_detected")
        pristine = getattr(message, "pristine", None)
        if pristine is not None and self.policy.corruption == CORRUPTION_RERETRIEVE:
            # Simulated retransmission: the sender's retained payload is
            # intact, so verify-and-reretrieve heals the message.
            message.payload = pristine
            message.pristine = None
            self.stats.incr("reretrieves")
            _mark("fault.reretrieve", source=message.source, tag=message.tag)
            return
        raise _errors().CorruptionError(
            f"message from rank {message.source} tag {message.tag} failed its "
            f"CRC32 check and no retransmission is available "
            f"(policy.corruption={self.policy.corruption!r})"
        )

    def on_alloc(self, rank: int, nbytes: int) -> None:
        """Consult the plan before a staging allocation (memory pressure).

        A scheduled failure below the retry budget is healed in place with
        the policy's exponential backoff — modeling an allocator that
        succeeds once transient pressure drains.  Past the budget it
        escalates to a typed
        :class:`~repro.mpisim.errors.MemoryBudgetError`, the same error
        the ledger raises, so callers see one vocabulary for "the staging
        memory is not there".
        """
        assert self.plan is not None
        op = self._allocs.get(rank, 0)
        self._allocs[rank] = op + 1
        self.stats.incr("allocs")  # staged payloads: what a split lane multiplies
        failures = self.plan.alloc_failures(rank, op)
        if failures:
            self.stats.incr("alloc_faults", failures)
            self._heal(
                rank, failures, f"staging allocation {op} ({nbytes} bytes)",
                "allocation", "MemoryBudgetError", "fault.alloc",
                op=op, nbytes=nbytes,
            )

    def on_round_start(self, rank: int, round_index: int, attempt: int) -> None:
        """Engine hook: fail round entry ``attempt`` (0-based) if scheduled.

        Raised *before* any message of the round has been posted or
        consumed, so the engine may retry the round locally without
        disturbing collective matching.
        """
        assert self.plan is not None
        failures = self.plan.round_failures(rank, round_index)
        if attempt < failures:
            self.stats.incr("round_faults")
            _mark("fault.round", rank=rank, round=round_index, attempt=attempt)
            raise _errors().TransientFaultError(
                f"rank {rank} round {round_index}: injected entry failure "
                f"(attempt {attempt})"
            )

    # -- internals -----------------------------------------------------------

    def _seal(self, rank: int, op: int, tag: Optional[int], message: Any) -> None:
        """Checksum a staged ndarray payload; corrupt it if scheduled."""
        assert self.plan is not None
        payload = message.payload
        if not isinstance(payload, np.ndarray) or payload.nbytes == 0:
            return
        message.checksum = zlib.crc32(payload.tobytes())
        if self.plan.corrupt(rank, op, tag):
            self.stats.incr("corruptions")
            corrupted = payload.copy()
            flat = corrupted.reshape(-1).view(np.uint8)
            index = self.plan._rng("corruptbyte", rank, op).randrange(flat.size)
            flat[index] ^= 0xFF
            message.pristine = payload
            message.payload = corrupted
            _mark("fault.corrupt", rank=rank, op=op, tag=tag)


#: Process-wide singleton every transport injection point consults.
FAULTS = FaultLayer()


#: ``FAULTS.install`` / ``FAULTS.clear`` under their module-level names.
install_fault_plan = FAULTS.install
clear_fault_plan = FAULTS.clear


@contextmanager
def fault_plan(
    plan: FaultPlan, policy: Optional[ReliabilityPolicy] = None
) -> Iterator[FaultLayer]:
    """Run a block under ``plan``; prior state is restored on exit.

    Install/clear only while the fabric is quiescent (no exchange in
    flight): a message sealed under one plan must be delivered while the
    layer is still active for its checksum to be verified.
    """
    previous = (FAULTS.active, FAULTS.plan, FAULTS.policy)
    FAULTS.install(plan, policy)
    try:
        yield FAULTS
    finally:
        FAULTS.active, FAULTS.plan, FAULTS.policy = previous
