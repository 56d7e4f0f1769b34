"""A wall-clock stopwatch (the TIFF loaders' read / exchange phases), plus
the transfer-accounting hook the transport layer reports into."""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator


class Timer:
    """Context-manager stopwatch.

    >>> with Timer() as t:
    ...     pass
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.elapsed = time.perf_counter() - self._start


class TransferCounters:
    """Byte/copy accounting for the redistribution transfer path.

    The transport layer (``repro.mpisim``) and the DDR core report every
    staging allocation and every array copy here, so benchmarks and tests
    can *assert* copy counts instead of inferring them from timings —
    e.g. that the zero-copy transport performs exactly one copy per lane
    and that a cached :class:`~repro.core.api.Redistributor` allocates no
    new arrays on repeated exchanges.

    Disabled by default; every hot-path hook is a single attribute check
    in that state.  Enable through :func:`counting_transfers` (preferred)
    or ``enabled = True`` + :meth:`reset`.
    """

    #: copy kinds reported by the transport layer
    KINDS = ("pack", "unpack", "payload", "direct")

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.copies: dict[str, int] = {kind: 0 for kind in self.KINDS}
        self.bytes_copied: dict[str, int] = {kind: 0 for kind in self.KINDS}
        self.allocations = 0
        self.bytes_allocated = 0
        self.evictions = 0
        self.bytes_evicted = 0

    def count_copy(self, kind: str, nbytes: int) -> None:
        if kind not in self.copies:
            raise ValueError(
                f"unknown copy kind {kind!r}; expected one of {self.KINDS}"
            )
        with self._lock:
            self.copies[kind] += 1
            self.bytes_copied[kind] += int(nbytes)

    def count_alloc(self, nbytes: int) -> None:
        with self._lock:
            self.allocations += 1
            self.bytes_allocated += int(nbytes)

    def count_eviction(self, nbytes: int) -> None:
        with self._lock:
            self.evictions += 1
            self.bytes_evicted += int(nbytes)

    @property
    def total_copies(self) -> int:
        return sum(self.copies.values())

    @property
    def total_bytes_copied(self) -> int:
        return sum(self.bytes_copied.values())

    def snapshot(self) -> dict:
        """A plain-dict copy, convenient for JSON records and asserts."""
        with self._lock:
            return {
                "copies": dict(self.copies),
                "bytes_copied": dict(self.bytes_copied),
                "allocations": self.allocations,
                "bytes_allocated": self.bytes_allocated,
                "evictions": self.evictions,
                "bytes_evicted": self.bytes_evicted,
            }


#: Process-wide singleton the transport hooks report into.  All SPMD "ranks"
#: are threads of one process, so one set of counters sees every lane.
TRANSFER_COUNTERS = TransferCounters()


def transfer_counters() -> TransferCounters:
    return TRANSFER_COUNTERS


@contextmanager
def counting_transfers() -> Iterator[TransferCounters]:
    """Enable transfer accounting within a block.

    The block starts from zero, and nesting is safe: the prior state
    (including a surrounding block's accumulated counts) is saved on entry
    and restored on exit with the inner block's counts folded back in, so
    an outer ``counting_transfers`` sees everything that happened inside
    it and keeps its own ``enabled`` flag.

    >>> with counting_transfers() as counters:
    ...     pass
    >>> counters.total_copies
    0
    """
    counters = TRANSFER_COUNTERS
    with counters._lock:
        prior_enabled = counters.enabled
        prior = {
            "copies": dict(counters.copies),
            "bytes_copied": dict(counters.bytes_copied),
            "allocations": counters.allocations,
            "bytes_allocated": counters.bytes_allocated,
            "evictions": counters.evictions,
            "bytes_evicted": counters.bytes_evicted,
        }
        counters.reset()  # does not take the lock; safe to call while held
        counters.enabled = True
    try:
        yield counters
    finally:
        with counters._lock:
            counters.enabled = prior_enabled
            for kind in counters.KINDS:
                counters.copies[kind] += prior["copies"][kind]
                counters.bytes_copied[kind] += prior["bytes_copied"][kind]
            counters.allocations += prior["allocations"]
            counters.bytes_allocated += prior["bytes_allocated"]
            counters.evictions += prior["evictions"]
            counters.bytes_evicted += prior["bytes_evicted"]
