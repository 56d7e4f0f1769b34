"""Error types for the in-process MPI runtime."""

from __future__ import annotations


class MpiSimError(RuntimeError):
    """Base class for all mpisim failures."""


class AbortError(MpiSimError):
    """Raised in every blocked rank when some rank fails (MPI_Abort semantics)."""


class TruncationError(MpiSimError):
    """A received message is larger than the posted receive buffer."""


class DatatypeError(MpiSimError, ValueError):
    """Invalid datatype construction or a type/buffer mismatch."""


class CommunicatorError(MpiSimError, ValueError):
    """Invalid rank, tag, or communicator usage."""


class DeadlineError(MpiSimError):
    """A blocking operation waited longer than the fabric's deadlock timeout
    (or a per-operation deadline from a :class:`~repro.faults.ReliabilityPolicy`).

    Subclasses ``RuntimeError`` (not the builtin :class:`TimeoutError`) so
    generic handlers catch it.
    """


class RevokedError(MpiSimError):
    """The communicator was revoked (ULFM ``MPIX_Comm_revoke`` semantics).

    Every pending and future operation on a revoked communicator — and on
    any communicator derived from it — raises this instead of hanging.
    Fault-tolerant agreement (:meth:`Communicator.agree`) and
    :meth:`Communicator.shrink` still complete on a revoked communicator,
    which is how survivors rendezvous and rebuild.
    """


class ProcessFailedError(MpiSimError):
    """An operation involves a peer the liveness table knows is gone
    (ULFM ``MPI_ERR_PROC_FAILED`` semantics).

    Raised promptly — from the executor's liveness table, not a timeout —
    when a receive targets a dead source, a send targets a dead
    destination, or a rendezvous lane waits on a dead receiver.  Messages
    a rank managed to send before dying remain deliverable.
    """


class MemoryBudgetError(MpiSimError, MemoryError):
    """A staging allocation would exceed the configured ``MemoryBudget``
    (``DDR_MEM_BUDGET_MB``).

    Subclasses :class:`MemoryError` so generic OOM handlers still fire, and
    :class:`MpiSimError` so the chaos harness classifies it as a typed
    failure rather than a bare exception.  Raised *before* the allocation
    happens — the budget ledger is consulted first — so the process is never
    actually near the host's OOM killer when this surfaces.
    """


class FaultInjectionError(MpiSimError):
    """Base class for failures surfaced by the fault-injection layer
    (:mod:`repro.faults`) after recovery was attempted or ruled out."""


class TransientFaultError(FaultInjectionError):
    """A retryable injected failure.

    Raised only at points where no communication state has changed (e.g.
    exchange-round entry), so catching it and retrying the operation is
    always safe.  Transient send/recv faults inside the transport never
    escape as this type — they are healed in place by the reliability
    layer's retry-with-backoff or escalated to
    :class:`RetriesExhaustedError`.
    """


class RetriesExhaustedError(FaultInjectionError):
    """An operation kept failing past the ``ReliabilityPolicy`` retry budget."""


class CorruptionError(FaultInjectionError):
    """A message failed its checksum and could not be re-retrieved."""


class RankCrashError(FaultInjectionError):
    """This rank was killed by the fault plan (simulated process death)."""
