"""Shared helpers: units, timing, array utilities, logging."""

from .units import (
    GiB,
    KiB,
    MiB,
    fmt_bytes,
    fmt_mb,
    fmt_seconds,
    gbit_per_s,
    mb,
)
from .timing import (
    Timer,
    TransferCounters,
    counting_transfers,
    transfer_counters,
)
from .arrays import StagingPool, as_contiguous, dtype_size, flat_view
from .membudget import (
    MEMORY_BUDGET,
    MemoryAudit,
    MemoryBudget,
    auditing_memory,
    budget_scope,
    memory_budget,
)

__all__ = [
    "GiB",
    "KiB",
    "MEMORY_BUDGET",
    "MemoryAudit",
    "MemoryBudget",
    "MiB",
    "StagingPool",
    "Timer",
    "TransferCounters",
    "counting_transfers",
    "transfer_counters",
    "as_contiguous",
    "auditing_memory",
    "budget_scope",
    "dtype_size",
    "flat_view",
    "fmt_bytes",
    "fmt_mb",
    "fmt_seconds",
    "gbit_per_s",
    "mb",
    "memory_budget",
]
