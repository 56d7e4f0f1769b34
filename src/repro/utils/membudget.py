"""Process-wide memory budget for DDR-managed staging allocations.

The budget bounds what the *library* allocates on behalf of an exchange —
staging-pool arrays, packed send payloads, shared-memory segments, and
in-flight receive payloads — per rank.  User buffers (the arrays handed to
``gather_need`` or returned from it) are never charged: the budget models
the paper's "small host" scenario where the data fits but the naive
exchange footprint does not.

Enforcement is predictive: :meth:`MemoryBudget.reserve` is consulted
*before* each staging allocation and raises the typed
:class:`~repro.mpisim.errors.MemoryBudgetError` when the ledger would
exceed the limit, so the process never races the host's OOM killer.
When no limit is configured (the default) every hook is a single
attribute check.

The limit comes from ``DDR_MEM_BUDGET_MB`` at import time or from
:func:`budget_scope` / :meth:`MemoryBudget.set_limit` at runtime.  The
ledger is per rank (SPMD ranks are threads of one process; ``None`` keys
the driver thread) because the budget models per-host memory and every
rank of the simulated job shares this host.

:func:`auditing_memory` is the cross-check: it measures the real
allocation peak of a block via :mod:`tracemalloc` so tests can hold the
plan's staging estimates (``GlobalPlan.staged``) against measured reality.
"""

from __future__ import annotations

import math
import os
import threading
import tracemalloc
from contextlib import contextmanager
from typing import Iterator, Optional

from .units import fmt_bytes

__all__ = [
    "MEMORY_BUDGET",
    "MemoryAudit",
    "MemoryBudget",
    "auditing_memory",
    "budget_scope",
]


def _budget_error():
    # Lazy: utils must stay importable without repro.mpisim (and mpisim
    # imports utils.arrays), so the typed error is fetched on first raise —
    # the same pattern faults.injector uses for transport error types.
    from ..mpisim.errors import MemoryBudgetError

    return MemoryBudgetError


class MemoryBudget:
    """Per-rank ledger of DDR-managed staging bytes against a hard limit.

    ``active`` is False until a limit is set; in that state ``reserve`` and
    ``release`` return immediately after one attribute check, so the
    disabled budget costs the hot path nothing.  ``release`` clamps at
    zero per rank, which makes it safe to enable a budget mid-flight:
    stragglers allocated before the limit existed release into an empty
    ledger without driving it negative.
    """

    def __init__(self, limit_bytes: Optional[int] = None) -> None:
        self._lock = threading.Lock()
        self.active = False
        self.limit_bytes: Optional[int] = None
        #: rank (``None`` = driver thread) -> currently reserved bytes
        self._used: dict[Optional[int], int] = {}
        #: rank -> high-water mark of ``_used``
        self._peak: dict[Optional[int], int] = {}
        if limit_bytes is not None:
            self.set_limit(limit_bytes)

    # -- configuration -------------------------------------------------------

    def set_limit(self, limit_bytes: Optional[int]) -> None:
        """Install (or clear, with ``None``) the per-rank byte limit."""
        if limit_bytes is not None:
            limit_bytes = int(limit_bytes)
            if limit_bytes < 0:
                raise ValueError(f"memory budget limit must be >= 0, got {limit_bytes}")
        with self._lock:
            self.limit_bytes = limit_bytes
            self.active = limit_bytes is not None

    def reset(self) -> None:
        """Zero the ledger and high-water marks (limit unchanged)."""
        with self._lock:
            self._used.clear()
            self._peak.clear()

    # -- ledger --------------------------------------------------------------

    def reserve(
        self, nbytes: int, what: str = "staging", rank: Optional[int] = None
    ) -> None:
        """Charge ``nbytes`` to ``rank``; raise typed when over the limit."""
        if not self.active:
            return
        nbytes = int(nbytes)
        if nbytes <= 0:
            return
        with self._lock:
            limit = self.limit_bytes
            have = self._used.get(rank, 0)
            if limit is not None and have + nbytes > limit:
                who = "driver" if rank is None else f"rank {rank}"
                raise _budget_error()(
                    f"{what}: reserving {fmt_bytes(nbytes)} would put {who} at "
                    f"{fmt_bytes(have + nbytes)} of the "
                    f"{fmt_bytes(limit)} DDR_MEM_BUDGET_MB staging budget"
                )
            used = have + nbytes
            self._used[rank] = used
            if used > self._peak.get(rank, 0):
                self._peak[rank] = used

    def release(self, nbytes: int, rank: Optional[int] = None) -> None:
        if not self.active:
            return
        nbytes = int(nbytes)
        if nbytes <= 0:
            return
        with self._lock:
            self._used[rank] = max(0, self._used.get(rank, 0) - nbytes)

    # -- inspection ----------------------------------------------------------

    def used_bytes(self, rank: Optional[int] = None) -> int:
        with self._lock:
            return self._used.get(rank, 0)

    def peak_bytes(self, rank: Optional[int] = None) -> int:
        """High-water mark — for ``rank``, or the worst rank when omitted
        (comparable to the per-rank limit)."""
        with self._lock:
            if rank is not None:
                return self._peak.get(rank, 0)
            return max(self._peak.values(), default=0)


def _limit_from_env() -> Optional[int]:
    raw = os.environ.get("DDR_MEM_BUDGET_MB", "").strip()
    if not raw:
        return None
    try:
        megabytes = float(raw)
    except ValueError:
        megabytes = math.nan
    if not 0 < megabytes < math.inf:
        raise ValueError(
            f"DDR_MEM_BUDGET_MB={raw!r}: expected a finite, positive number of MiB"
        )
    return int(megabytes * 1024 * 1024)


#: Process-wide singleton every staging path consults (all SPMD ranks are
#: threads of this process).  Seeded from ``DDR_MEM_BUDGET_MB`` at import.
MEMORY_BUDGET = MemoryBudget(_limit_from_env())


@contextmanager
def budget_scope(
    limit_mb: Optional[float] = None, *, limit_bytes: Optional[int] = None
) -> Iterator[MemoryBudget]:
    """Install a budget limit within a block, restoring the prior ledger.

    ``budget_scope(64)`` caps DDR staging at 64 MiB per rank for the block;
    ``budget_scope(None)`` disables the budget for the block (useful for
    carving audit regions out of a budgeted run).  The chaos harness sweeps
    budgets with this rather than mutating the environment.
    """
    if limit_mb is not None and limit_bytes is not None:
        raise ValueError("pass limit_mb or limit_bytes, not both")
    if limit_mb is not None:
        limit_bytes = int(float(limit_mb) * 1024 * 1024)
    budget = MEMORY_BUDGET
    with budget._lock:
        prior_limit = budget.limit_bytes
        prior_used = dict(budget._used)
        prior_peak = dict(budget._peak)
    budget.set_limit(limit_bytes)  # validates before the ledger is touched
    budget.reset()
    try:
        yield budget
    finally:
        budget.set_limit(prior_limit)
        with budget._lock:
            budget._used = prior_used
            budget._peak = prior_peak


class MemoryAudit:
    """Result handle for :func:`auditing_memory`: ``measured_peak_bytes``
    is valid after the block exits."""

    __slots__ = ("baseline_bytes", "measured_peak_bytes")

    def __init__(self, baseline_bytes: int) -> None:
        self.baseline_bytes = baseline_bytes
        self.measured_peak_bytes = 0


@contextmanager
def auditing_memory() -> Iterator[MemoryAudit]:
    """Measure the real allocation peak of a block via :mod:`tracemalloc`.

    The measured number is process-wide (tracemalloc cannot split threads),
    so cross-checks against the analytic estimates compare it to the *sum*
    of per-rank ``peak_bytes`` plus workload buffers, not to a single
    rank's share.  Tracing is started only for the block when not already
    on, and the surrounding trace state is preserved.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    baseline, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    audit = MemoryAudit(baseline)
    try:
        yield audit
    finally:
        _, peak = tracemalloc.get_traced_memory()
        audit.measured_peak_bytes = max(0, peak - baseline)
        if started:
            tracemalloc.stop()
