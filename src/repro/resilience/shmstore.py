"""Shared-memory buddy checkpoint store: crash recovery across processes.

:class:`~repro.resilience.checkpoint.BuddyStore` lives on ``Fabric.shared``,
which under the process executor is a *per-rank* dict — a survivor could
never read a dead peer's deposits, so buddy recovery was thread-only (the
PR 6 known limitation).  :class:`ShmBuddyStore` keeps the exact same
``(owner, epoch) -> {holders, [(Box, array)]}`` semantics but publishes each
deposit as a named POSIX shared-memory segment under the run's blackboard
prefix (``Fabric.blackboard_prefix``), so any rank — including one that
joined after the deposit was written — can read it after the owner died.

Segment protocol
----------------

One segment per deposit, named ``{prefix}_{owner}_{epoch}_{pid}_{seq}``.
The first header byte is a ready flag: the writer creates the segment with
the flag clear, writes the length-prefixed pickle of
``{"holders": (...), "pairs": [(Box, ndarray), ...]}``, and sets the flag
last, so readers never observe a half-written blob (they skip not-ready
segments, exactly as if the deposit had not happened yet).  Re-deposits of
the same ``(owner, epoch)`` — epoch replay after a crash — write a fresh
segment (the per-writer ``seq`` makes the name unique) and then unlink the
superseded one; readers always pick the newest ready version.

Each ``(owner, epoch)`` key has a single writer (the rank hosting
``owner`` — after adoption, deposits continue under the *adopter's* world
rank), so no cross-process write locking is needed.

Lifecycle: segments are deliberately **not** registered in the staging
registries of :mod:`repro.mpisim.shm` — ``release_all`` destroys a
process's owned segments at exit, which is precisely wrong for checkpoints
(a crashed rank's deposits must outlive it).  The multiprocessing resource
tracker's create-time registration is left in place (the fork-shared
tracker daemon keeps one set for the whole rank tree) and is balanced by
exactly one unregister at whichever site unlinks the segment: store
pruning (``retain`` / supersede / :meth:`clear`) or the process-executor
parent's end-of-run ``sweep_prefix`` (the blackboard prefix extends the
run's shm prefix, so the sweep reaps deposits too).
"""

from __future__ import annotations

import os
import pickle
import threading
from multiprocessing import shared_memory
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.box import Box
from ..mpisim.shm import _untrack

__all__ = ["ShmBuddyStore"]

#: Header layout: byte 0 ready flag, bytes 8..16 little-endian blob length.
_HEADER = 16
_READY = 1

_SHM_DIR = "/dev/shm"


class ShmBuddyStore:
    """Drop-in :class:`BuddyStore` twin backed by named shm segments.

    Same public surface — ``deposit`` / ``fetch`` / ``has_box`` /
    ``clear`` — and the same availability model: a deposit
    is readable while at least one of its holders is not in the caller's
    dead set.  State lives in ``/dev/shm``, so it survives the depositing
    process.
    """

    def __init__(self, prefix: str) -> None:
        if not prefix:
            raise ValueError("ShmBuddyStore needs a non-empty segment prefix")
        self.prefix = prefix
        self._lock = threading.Lock()
        self._seq = 0

    # -- segment naming ------------------------------------------------------

    def _scan(self) -> List[Tuple[int, int, int, int, str]]:
        """All deposit segments: ``(owner, epoch, pid, seq, name)`` tuples."""
        head = f"{self.prefix}_"
        entries: List[Tuple[int, int, int, int, str]] = []
        try:
            names = os.listdir(_SHM_DIR)
        except OSError:
            return entries
        for name in names:
            if not name.startswith(head):
                continue
            parts = name[len(head):].split("_")
            if len(parts) != 4:
                continue
            try:
                owner, epoch, pid, seq = (int(p) for p in parts)
            except ValueError:
                continue
            entries.append((owner, epoch, pid, seq, name))
        return entries

    @staticmethod
    def _unlink(name: str) -> None:
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
        except OSError:
            pass
        _untrack(name)

    # -- blob IO -------------------------------------------------------------

    def _write(self, name: str, blob: bytes) -> None:
        # Registration with the resource tracker stays: whichever process
        # eventually unlinks this segment (prune or parent sweep) pairs it
        # with the one unregister.
        seg = shared_memory.SharedMemory(
            name=name, create=True, size=_HEADER + len(blob)
        )
        try:
            seg.buf[8:16] = len(blob).to_bytes(8, "little")
            seg.buf[_HEADER : _HEADER + len(blob)] = blob
            seg.buf[0] = _READY  # commit: readers skip until this is set
        finally:
            seg.close()

    @staticmethod
    def _read(name: str) -> Optional[dict]:
        try:
            # Attach-side tracker registration is a set-add of an already
            # registered name: a no-op, so no unregister is owed here.
            seg = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError):
            return None
        try:
            if seg.buf[0] != _READY:
                return None
            length = int.from_bytes(bytes(seg.buf[8:16]), "little")
            return pickle.loads(bytes(seg.buf[_HEADER : _HEADER + length]))
        except Exception:
            return None  # racing unlink, or a truncated writer that died
        finally:
            seg.close()

    def _read_latest(
        self, owner: int, epoch: int, entries: Sequence[Tuple[int, int, int, int, str]]
    ) -> Optional[dict]:
        versions = sorted(
            ((pid, seq, name) for o, e, pid, seq, name in entries
             if o == owner and e == epoch),
            reverse=True,
        )
        for _, _, name in versions:
            payload = self._read(name)
            if payload is not None:
                return payload
        return None

    # -- BuddyStore interface ------------------------------------------------

    def deposit(
        self,
        owner_world: int,
        epoch: int,
        holders: Iterable[int],
        pairs: Sequence[Tuple[Box, np.ndarray]],
        retain: Optional[int] = None,
    ) -> None:
        payload = {
            "holders": tuple(holders),
            # order="C" for the same reason BuddyStore copies C-order:
            # restored buffers feed exchanges that need contiguity.
            "pairs": [(box, np.array(arr, copy=True, order="C")) for box, arr in pairs],
        }
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self._seq += 1
            seq = self._seq
        name = f"{self.prefix}_{owner_world}_{epoch}_{os.getpid()}_{seq}"
        self._write(name, blob)
        entries = self._scan()
        # Supersede older versions of this (owner, epoch) deposit.
        for o, e, _, _, other in entries:
            if o == owner_world and e == epoch and other != name:
                self._unlink(other)
        if retain is not None:
            epochs = sorted({e for o, e, _, _, _ in entries if o == owner_world})
            for stale in epochs[:-retain]:
                for o, e, _, _, other in entries:
                    if o == owner_world and e == stale:
                        self._unlink(other)

    def fetch(
        self, box: Box, epoch: int, dead: frozenset
    ) -> Optional[Tuple[np.ndarray, bool]]:
        entries = self._scan()
        best: Optional[np.ndarray] = None
        best_epoch = -1
        for owner, ep in sorted({(o, e) for o, e, _, _, _ in entries}):
            if ep > epoch:
                continue
            payload = self._read_latest(owner, ep, entries)
            if payload is None:
                continue
            if all(h in dead for h in payload["holders"]):
                continue
            for b, arr in payload["pairs"]:
                if b == box and ep > best_epoch:
                    best, best_epoch = arr, ep
        if best is None:
            return None
        return np.array(best, copy=True, order="C"), best_epoch == epoch

    def has_box(self, box: Box, dead: frozenset) -> bool:
        entries = self._scan()
        for owner, ep in sorted({(o, e) for o, e, _, _, _ in entries}):
            payload = self._read_latest(owner, ep, entries)
            if payload is None:
                continue
            if all(h in dead for h in payload["holders"]):
                continue
            if any(b == box for b, _ in payload["pairs"]):
                return True
        return False

    def clear(self) -> None:
        for _, _, _, _, name in self._scan():
            self._unlink(name)
