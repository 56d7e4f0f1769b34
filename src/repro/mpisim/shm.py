"""POSIX shared-memory staging for the process executor (and ``shm`` transport).

When mpisim ranks are OS processes (``run_spmd(..., executor="process")``)
the zero-copy rendezvous transport is unavailable — a live buffer reference
cannot cross an address-space boundary.  The ``shm`` transport replaces it:
the sender packs its datatype selection straight into a
``multiprocessing.shared_memory`` segment (one copy), posts a tiny picklable
:class:`ShmTicket` through the control queue, and the receiver unpacks
straight out of the mapped segment (one copy).  That is the same two copies
as the packed baseline but without pickling megabytes through a pipe, and
with no per-message allocation once the pool is warm.

Lifecycle discipline (mirrors ``BufferCache``/``StagingPool`` in
``repro.core``/``repro.utils``):

* :class:`ShmArena` owns segment *names*: it creates, attaches, and — at
  close — unlinks them.  Creator-side segments carry the creating pid so a
  forked child never unlinks its parent's segments.
* :class:`ShmStagingPool` recycles segments by size class.  Each segment's
  first header byte is a drained flag written by the receiver when it has
  copied the payload out; the sender reuses a segment only once the flag is
  set, so no acknowledgement message is needed.
* Abnormal exits: every process registers :func:`release_all` via
  ``atexit``, and the process-executor parent sweeps ``/dev/shm`` by run
  prefix after the run (:func:`sweep_prefix`), so a hard-killed rank cannot
  leak segments.

The first :data:`HEADER_BYTES` bytes of every segment are reserved for the
drained flag; payload views start after the header.
"""

from __future__ import annotations

import atexit
import os
import threading
from multiprocessing import shared_memory

import numpy as np

from .errors import CommunicatorError, ProcessFailedError

__all__ = [
    "HEADER_BYTES",
    "ShmArena",
    "ShmSegment",
    "ShmStagingPool",
    "ShmTicket",
    "attach",
    "release_all",
    "sweep_prefix",
]

#: Reserved bytes at the head of every segment (flag byte + padding that
#: keeps payload views 16-byte aligned).
HEADER_BYTES = 16

_FLAG_IN_FLIGHT = 0
_FLAG_DRAINED = 1

#: Smallest segment the pool hands out; sub-4KiB messages share a page
#: anyway, so finer classes would only multiply the number of segments.
MIN_SEGMENT_BYTES = 4096


def _untrack(name: str) -> None:
    """Drop ``name`` from the multiprocessing resource tracker.

    On POSIX the tracker registers every ``SharedMemory`` (attach included,
    until 3.13's ``track=False``) and unlinks leftovers at interpreter exit
    with a "leaked shared_memory" warning.  We manage unlinking ourselves,
    so after a deliberate unlink/close the registration must go too.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:
        pass  # tracker gone at shutdown, or name never registered


class ShmSegment:
    """One shared-memory segment: header flag + payload bytes."""

    __slots__ = ("shm", "capacity", "owner", "pid")

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool) -> None:
        self.shm = shm
        self.capacity = shm.size - HEADER_BYTES
        self.owner = owner
        self.pid = os.getpid()

    @property
    def name(self) -> str:
        return self.shm.name

    # -- drained flag (receiver-to-sender, through the shared mapping) -------

    def mark_in_flight(self) -> None:
        self.shm.buf[0] = _FLAG_IN_FLIGHT

    def mark_drained(self) -> None:
        self.shm.buf[0] = _FLAG_DRAINED

    @property
    def drained(self) -> bool:
        return self.shm.buf[0] == _FLAG_DRAINED

    # -- payload access -------------------------------------------------------

    def view(self, dtype: np.dtype, count: int) -> np.ndarray:
        """A 1-D NumPy view of the payload area (no copy)."""
        dtype = np.dtype(dtype)
        nbytes = count * dtype.itemsize
        if nbytes > self.capacity:
            raise CommunicatorError(
                f"shm segment {self.name} holds {self.capacity} payload bytes, "
                f"{nbytes} requested"
            )
        return np.ndarray(count, dtype=dtype, buffer=self.shm.buf, offset=HEADER_BYTES)

    # -- teardown -------------------------------------------------------------

    def close(self) -> None:
        """Unmap this process's view.  Tolerates exported NumPy views (the
        mapping then lives until the views die; the name is still gone).

        Deliberately does *not* unregister from the resource tracker: the
        tracker daemon is shared by the whole process tree and its cache
        holds one entry per name no matter how many processes registered
        it (create and attach both register pre-3.13), so the single
        unregister belongs to whoever unlinks — the owner's
        :meth:`destroy`, or the parent's :func:`sweep_prefix`.
        """
        try:
            self.shm.close()
        except BufferError:
            pass

    def destroy(self) -> None:
        """Unlink the name (creator only) and unmap.  Safe to call twice.

        ``SharedMemory.unlink`` already unregisters from the resource
        tracker, so no explicit ``_untrack`` here — a second unregister
        would KeyError inside the shared tracker daemon.
        """
        if self.owner and self.pid == os.getpid():
            try:
                self.shm.unlink()
            except FileNotFoundError:
                pass
        self.close()


# -- process-wide registries ---------------------------------------------------
#
# ``attach`` must resolve a ticket's name to a segment no matter which arena
# created it (under the thread executor, creator and receiver share one
# process), so the caches are module-level.  Forked children inherit the
# parent's entries; ``forget_foreign`` drops them (close, never unlink).

_LOCK = threading.Lock()
_OWNED: dict[str, ShmSegment] = {}
_ATTACHED: dict[str, ShmSegment] = {}


def attach(name: str) -> ShmSegment:
    """Resolve a segment name to a mapped segment (cached per process)."""
    with _LOCK:
        segment = _OWNED.get(name) or _ATTACHED.get(name)
        if segment is not None:
            return segment
    try:
        raw = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        raise ProcessFailedError(
            f"shared-memory segment {name!r} is gone; the sending rank "
            f"exited (or was killed) before this message was consumed"
        ) from None
    segment = ShmSegment(raw, owner=False)
    with _LOCK:
        # Lost race: another thread attached meanwhile — keep the first.
        existing = _OWNED.get(name) or _ATTACHED.get(name)
        if existing is not None:
            segment.close()
            return existing
        _ATTACHED[name] = segment
    return segment


def forget_foreign() -> None:
    """Drop registry entries created by another process (post-fork hygiene).

    A forked rank inherits its parent's caches; it must never unlink the
    parent's segments, only forget its copies of the handles.
    """
    pid = os.getpid()
    with _LOCK:
        for cache in (_OWNED, _ATTACHED):
            for name in [n for n, s in cache.items() if s.pid != pid]:
                cache.pop(name).close()


def release_all() -> None:
    """Destroy every segment this process created and unmap every attach.

    Registered via ``atexit`` so a normally-exiting process never leaks
    ``/dev/shm`` entries even when no explicit cleanup ran.
    """
    with _LOCK:
        owned = list(_OWNED.values())
        attached = list(_ATTACHED.values())
        _OWNED.clear()
        _ATTACHED.clear()
    for segment in owned:
        segment.destroy()
    for segment in attached:
        segment.close()


atexit.register(release_all)


def sweep_prefix(prefix: str) -> list[str]:
    """Unlink every ``/dev/shm`` entry starting with ``prefix``.

    The process-executor parent calls this after a run: ranks that exited
    normally already unlinked their own segments, so anything left belongs
    to a hard-killed rank.  Returns the names removed (for tests/logs).
    """
    shm_dir = "/dev/shm"
    removed: list[str] = []
    try:
        names = os.listdir(shm_dir)
    except OSError:
        return removed
    for name in names:
        if not name.startswith(prefix):
            continue
        try:
            os.unlink(os.path.join(shm_dir, name))
        except OSError:
            continue
        _untrack(name)
        removed.append(name)
        with _LOCK:
            for cache in (_OWNED, _ATTACHED):
                segment = cache.pop(name, None)
                if segment is not None:
                    segment.close()
    return removed


# -- arena + pool --------------------------------------------------------------


class ShmArena:
    """Creates (and at close, unlinks) shared-memory segments under a prefix."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self._seq = 0
        self._segments: list[ShmSegment] = []
        self._lock = threading.Lock()

    def create(self, nbytes: int) -> ShmSegment:
        """A fresh segment with ``nbytes`` of payload capacity."""
        with self._lock:
            self._seq += 1
            name = f"{self.prefix}_{self._seq}"
        raw = shared_memory.SharedMemory(
            name=name, create=True, size=nbytes + HEADER_BYTES
        )
        segment = ShmSegment(raw, owner=True)
        segment.mark_in_flight()
        with self._lock:
            self._segments.append(segment)
        with _LOCK:
            _OWNED[name] = segment
        return segment

    def segments(self) -> list[ShmSegment]:
        with self._lock:
            return list(self._segments)

    def close(self) -> None:
        """Unlink and unmap every segment this arena created."""
        with self._lock:
            segments = list(self._segments)
            self._segments.clear()
        for segment in segments:
            with _LOCK:
                _OWNED.pop(segment.name, None)
            segment.destroy()


class ShmStagingPool:
    """Size-classed reuse pool over an :class:`ShmArena`.

    ``acquire`` prefers a segment of the right class whose receiver has set
    the drained flag; only when every outstanding segment is still in
    flight does it create a new one.  This mirrors ``StagingPool``'s
    steady-state property for the paper's per-frame exchange: after one
    warm frame, no allocation (here: no ``shm_open``) happens again.
    """

    def __init__(self, prefix: str) -> None:
        self.arena = ShmArena(prefix)
        self._classes: dict[int, list[ShmSegment]] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _size_class(nbytes: int) -> int:
        size = MIN_SEGMENT_BYTES
        while size < nbytes:
            size <<= 1
        return size

    def acquire(self, nbytes: int) -> ShmSegment:
        """A segment with >= ``nbytes`` payload capacity, marked in-flight."""
        size = self._size_class(nbytes)
        with self._lock:
            for segment in self._classes.setdefault(size, []):
                if segment.drained:
                    segment.mark_in_flight()
                    return segment
        segment = self.arena.create(size)
        with self._lock:
            self._classes[size].append(segment)
        return segment

    def close(self) -> None:
        with self._lock:
            self._classes.clear()
        self.arena.close()


class ShmTicket:
    """The picklable message payload for shm-staged traffic.

    Carries only the segment name and the payload geometry; whoever drains
    the message (:mod:`repro.mpisim.transport`) resolves the name with
    :func:`attach` — to the mapped segment in a receiving process, to the
    creator's own segment when the sender itself discards a dropped
    message — and marks it drained.
    """

    __slots__ = ("name", "dtype", "count")

    def __init__(self, name: str, dtype: str, count: int) -> None:
        self.name = name
        self.dtype = dtype
        self.count = count

    @property
    def nbytes(self) -> int:
        return self.count * np.dtype(self.dtype).itemsize

    def __repr__(self) -> str:
        return f"ShmTicket({self.name!r}, {self.dtype}, n={self.count})"
