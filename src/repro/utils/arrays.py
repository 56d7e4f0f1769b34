"""NumPy array helpers shared by the datatype and packing layers."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .membudget import MEMORY_BUDGET
from .timing import TRANSFER_COUNTERS

#: Default per-pool byte budget: large enough that a single steady-state
#: workload never evicts, small enough that a pool cannot eat the host when
#: mappings proliferate.
DEFAULT_POOL_BUDGET_BYTES = 512 * 1024 * 1024


class StagingPool:
    """A bounded LRU reuse pool for staging/output arrays keyed by
    (shape, dtype).

    Repeated redistribution of same-layout data (the paper's dynamic-data
    use case — one call per simulation frame) needs the same scratch arrays
    every time; this pool hands back the previously allocated array instead
    of allocating afresh.  One array is cached per key, so a taken array is
    only valid until the same key is taken again — which matches the
    per-frame lifecycle of every caller.  Not thread-safe: each SPMD rank
    owns its own pool.

    The pool holds at most ``max_bytes`` of cached arrays: when an insert
    pushes it over budget the least-recently-taken entries are dropped
    (never the entry just inserted, so a single oversized array still
    round-trips).  Evictions are counted on the pool itself and, when
    enabled, in :data:`~repro.utils.timing.TRANSFER_COUNTERS` so the
    metrics layer can watch cache pressure as mappings proliferate.

    When a process-wide :data:`~repro.utils.membudget.MEMORY_BUDGET` is
    active, every fresh allocation reserves against the owning ``rank``'s
    ledger *before* NumPy allocates (raising the typed
    ``MemoryBudgetError`` instead of approaching real OOM) and every
    eviction or :meth:`clear` releases it.  ``peak_bytes`` is the pool's
    own resident high-water mark, surfaced as a metrics gauge by the
    serving layer.
    """

    def __init__(self, max_bytes: int | None = None, rank: int | None = None) -> None:
        self._arrays: OrderedDict[
            tuple[tuple[int, ...], np.dtype], np.ndarray
        ] = OrderedDict()
        self.max_bytes = DEFAULT_POOL_BUDGET_BYTES if max_bytes is None else int(max_bytes)
        self.current_bytes = 0
        self.peak_bytes = 0
        self.evictions = 0
        self.rank = rank

    def take(self, shape, dtype) -> np.ndarray:
        """An uninitialised array of the requested geometry (cached)."""
        if np.isscalar(shape):
            shape = (shape,)
        key = (tuple(int(s) for s in shape), np.dtype(dtype))
        array = self._arrays.get(key)
        if array is None:
            nbytes = key[1].itemsize
            for extent in key[0]:
                nbytes *= extent
            if MEMORY_BUDGET.active:
                MEMORY_BUDGET.reserve(nbytes, "staging pool", rank=self.rank)
            array = np.empty(key[0], dtype=key[1])
            if TRANSFER_COUNTERS.enabled:
                TRANSFER_COUNTERS.count_alloc(array.nbytes)
            self._arrays[key] = array
            self.current_bytes += array.nbytes
            if self.current_bytes > self.peak_bytes:
                self.peak_bytes = self.current_bytes
            self._evict_over_budget(keep=key)
        else:
            self._arrays.move_to_end(key)
        return array

    def take_filled(self, shape, dtype, fill) -> np.ndarray:
        array = self.take(shape, dtype)
        array.fill(fill)
        return array

    def _evict_over_budget(self, keep) -> None:
        while self.current_bytes > self.max_bytes and len(self._arrays) > 1:
            oldest = next(iter(self._arrays))
            if oldest == keep:
                # The just-inserted array must survive this call; everything
                # older is already gone, so the budget simply can't be met.
                break
            victim = self._arrays.pop(oldest)
            self.current_bytes -= victim.nbytes
            self.evictions += 1
            if MEMORY_BUDGET.active:
                MEMORY_BUDGET.release(victim.nbytes, rank=self.rank)
            if TRANSFER_COUNTERS.enabled:
                TRANSFER_COUNTERS.count_eviction(victim.nbytes)

    def clear(self) -> None:
        if MEMORY_BUDGET.active and self.current_bytes:
            MEMORY_BUDGET.release(self.current_bytes, rank=self.rank)
        self._arrays.clear()
        self.current_bytes = 0
