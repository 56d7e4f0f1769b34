"""Shared helpers: units, timing, array utilities, memory budgets."""

from .units import (
    GiB,
    KiB,
    MiB,
    fmt_bytes,
    gbit_per_s,
)
from .timing import (
    Timer,
    TransferCounters,
    counting_transfers,
)
from .arrays import StagingPool
from .membudget import (
    MEMORY_BUDGET,
    MemoryAudit,
    MemoryBudget,
    auditing_memory,
    budget_scope,
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
    "auditing_memory",
    "budget_scope",
    "fmt_bytes",
    "gbit_per_s",
]
