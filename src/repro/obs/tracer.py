"""Per-rank structured tracing: nestable spans with near-zero disabled cost.

The runtime's "ranks" are threads of one process, so one process-wide
:class:`Tracer` singleton (:data:`TRACER`) sees every rank's spans.  A span
is opened with::

    with TRACER.span("ddr.round", round=3, backend="p2p"):
        ...

and records wall-clock start/duration plus arbitrary attributes.  Spans
nest naturally through the ``with`` stack; the per-thread open-span stack
is also inspectable (:meth:`Tracer.active_spans`), which is how
``run_spmd`` names what a wedged rank was doing when it diagnoses a hang.

Cost discipline (same as ``TransferCounters``): every hot-path call site
guards on ``TRACER.enabled`` — a single attribute check — before computing
any span attributes.  ``span()`` itself also returns a no-op singleton when
tracing is off, so warm paths may call it unguarded.

Which process (pid) a span belongs to is resolved in this order: an
explicit ``rank=`` attribute at the call site (the instrumented runtime
passes the world rank), else the thread's rank as registered by
``run_spmd`` via :meth:`Tracer.set_thread_rank`, else ``None`` — the
exporter files those under a synthetic "driver" process.

Enable tracing per scope with :func:`tracing` (saves and restores the
prior state, so scopes nest safely) or process-wide by setting the
``DDR_TRACE`` environment variable to a non-empty value other than ``0``.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

__all__ = ["SpanRecord", "Tracer", "TRACER", "tracing"]


@dataclass
class SpanRecord:
    """One closed span: what happened, where, and for how long."""

    name: str
    rank: Optional[int]  # world rank, or None for driver/main-thread work
    tid: int  # OS thread ident (the exporter compresses these per pid)
    start_us: float  # microseconds since the tracer's epoch
    dur_us: float
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def category(self) -> str:
        """Dotted-name prefix (``mpi``, ``ddr``, ``phase``, ...)."""
        return self.name.split(".", 1)[0]


class _NullSpan:
    """The disabled-path span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _Span:
    """An open span (context manager).  Created only while tracing is on."""

    __slots__ = ("_tracer", "name", "rank", "attrs", "_start")

    def __init__(
        self, tracer: "Tracer", name: str, rank: Optional[int], attrs: dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.rank = rank
        self.attrs = attrs

    def set(self, **attrs: Any) -> "_Span":
        """Attach attributes discovered mid-span (e.g. received byte count)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        local = tracer._local
        if self.rank is None:
            self.rank = getattr(local, "rank", None)
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            with tracer._lock:
                tracer._stacks[threading.get_ident()] = stack
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = time.perf_counter()
        tracer = self._tracer
        stack = tracer._local.stack
        if stack and stack[-1] is self:
            stack.pop()
        else:  # out-of-order exit (shouldn't happen); drop our entry anyway
            try:
                stack.remove(self)
            except ValueError:
                pass
        record = SpanRecord(
            name=self.name,
            rank=self.rank,
            tid=threading.get_ident(),
            start_us=(self._start - tracer._epoch) * 1e6,
            dur_us=(end - self._start) * 1e6,
            attrs=self.attrs,
        )
        with tracer._lock:
            tracer._records.append(record)
        return False


class Tracer:
    """Thread-safe span collector; one per process (see :data:`TRACER`).

    ``enabled`` is a plain attribute so the hot-path guard is a single
    attribute check.  Records accumulate until :meth:`clear`.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        self._epoch = time.perf_counter()
        self._local = threading.local()
        # thread ident -> that thread's open-span stack (owner-mutated; other
        # threads only snapshot names, which is safe under the GIL).
        self._stacks: dict[int, list[_Span]] = {}

    @property
    def epoch(self) -> float:
        """The ``perf_counter`` value all ``start_us`` stamps are relative to.

        ``CLOCK_MONOTONIC`` is system-wide on Linux, so a forked child that
        adopts its parent's epoch (:meth:`reset_for_child`) produces spans
        on the same timeline — the parent can merge them verbatim.
        """
        return self._epoch

    # -- cross-process support (the process executor) ------------------------

    def reset_for_child(self, epoch: float, enabled: bool) -> None:
        """Re-initialise this tracer inside a forked rank process.

        Drops the records and open-span stacks inherited from the parent
        (they belong to the parent's threads, which do not exist here) and
        adopts the parent's epoch so this child's spans merge onto the
        parent's timeline.
        """
        with self._lock:
            self._records.clear()
            self._stacks.clear()
        self._local = threading.local()
        self._epoch = epoch
        self.enabled = enabled

    def ingest(self, records: list[SpanRecord]) -> None:
        """Merge spans recorded elsewhere (child rank processes)."""
        with self._lock:
            self._records.extend(records)

    # -- recording -----------------------------------------------------------

    def span(self, name: str, rank: Optional[int] = None, **attrs: Any):
        """Open a span; returns a context manager (no-op when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, rank, attrs)

    def set_thread_rank(self, rank: Optional[int]) -> None:
        """Bind the calling thread to a world rank (``run_spmd`` workers)."""
        self._local.rank = rank

    # -- inspection ----------------------------------------------------------

    def records(self) -> list[SpanRecord]:
        """Snapshot of all closed spans, in completion order."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def active_spans(self) -> dict[Optional[int], list[str]]:
        """Open-span names per rank — what each live thread is doing *now*.

        Used by ``run_spmd``'s hang diagnostic.  Threads with no open span
        are omitted; driver-thread spans appear under ``None``.
        """
        with self._lock:
            stacks = list(self._stacks.values())
        out: dict[Optional[int], list[str]] = {}
        for stack in stacks:
            snapshot = list(stack)  # owner thread may mutate concurrently
            if snapshot:
                out[snapshot[0].rank] = [span.name for span in snapshot]
        return out

    def clear(self) -> None:
        """Drop all records and restart the time epoch."""
        with self._lock:
            self._records.clear()
            self._epoch = time.perf_counter()


def _env_enabled() -> bool:
    return os.environ.get("DDR_TRACE", "") not in ("", "0")


#: Process-wide singleton every instrumentation hook reports into.
TRACER = Tracer(enabled=_env_enabled())


@contextmanager
def tracing(tracer: Tracer = TRACER, clear: bool = True) -> Iterator[Tracer]:
    """Enable tracing within a block; prior state is saved and restored
    (so nested scopes compose — the discipline ``counting_transfers``
    originally got wrong).  With ``clear=True`` (default) records from
    before the block are dropped on entry; a nested scope that must not
    clobber its parent's records passes ``clear=False``."""
    was_enabled = tracer.enabled
    if clear:
        tracer.clear()
    tracer.enabled = True
    try:
        yield tracer
    finally:
        tracer.enabled = was_enabled
