"""In-memory buddy checkpoint store for crash recovery.

Every exchange epoch, each rank deposits a copy of its owned chunks with
itself and with ``replicas`` buddy ranks (comm rank + k*stride, wrapping).
The store is a process-wide blackboard (it lives in ``Fabric.shared``), but
availability respects the failure model: a deposit is only *readable* while
at least one of its holders is not dead.  A cleanly retired rank is assumed
to have flushed its replicas on the way out, so retirement does not forfeit
deposits — only crashes do.

Memory cost per rank is ``(1 + replicas) * retain * bytes(own chunks)``:
the self-copy (needed to replay an epoch after a peer's crash rolls the
collective sequence back) plus one copy per buddy, for the last ``retain``
epochs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.box import Box
from ..mpisim.fabric import Fabric
from .errors import DataLossError

_STORE_KEY = "buddy_store"


@dataclass(frozen=True)
class CheckpointPolicy:
    """How aggressively chunk data is replicated across ranks.

    ``stride``
        Buddy k of comm rank r is ``(r + k*stride) % size``.  A stride
        larger than 1 spreads replicas away from the owner's neighbourhood
        so a localised failure (adjacent ranks) doesn't take out both the
        owner and its buddy.
    ``replicas``
        Number of buddy copies beyond the owner's own retained copy.  Data
        is lost only when the owner *and* all ``replicas`` buddies are dead.
    ``retain``
        Epochs of history kept per owner.  Two suffices for the
        redistributor (the trailing barrier bounds epoch skew across ranks
        to one), ``None`` keeps everything (the pipeline retains all frames
        so any rollback point is reachable).
    """

    stride: int = 1
    replicas: int = 1
    retain: Optional[int] = 2

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {self.replicas}")
        if self.retain is not None and self.retain < 1:
            raise ValueError(f"retain must be >= 1 or None, got {self.retain}")

    def holder_world_ranks(self, rank: int, members: Sequence[int]) -> Tuple[int, ...]:
        """World ranks holding rank ``rank``'s deposits: self, then buddies."""
        size = len(members)
        holders = [members[rank]]
        for k in range(1, self.replicas + 1):
            buddy = members[(rank + k * self.stride) % size]
            if buddy not in holders:
                holders.append(buddy)
        return tuple(holders)

    def adopter(self, index: int, members: Sequence[int], dead: frozenset) -> int:
        """World rank that takes over ``members[index]``'s chunks once
        ``dead`` are gone: the first live holder of its deposits (the owner
        itself while it lives), else the first survivor.  Every survivor
        computes the same answer from the agreed dead set."""
        for holder in self.holder_world_ranks(index, members):
            if holder not in dead:
                return holder
        return next(w for w in members if w not in dead)


class BuddyStore:
    """Thread-safe (owner, epoch) -> {holder: [(Box, array)]} deposit map."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # (owner_world, epoch) -> {holder_world: [(Box, ndarray), ...]}
        self._deposits: Dict[Tuple[int, int], Dict[int, List[Tuple[Box, np.ndarray]]]] = {}

    def deposit(
        self,
        owner_world: int,
        epoch: int,
        holders: Iterable[int],
        pairs: Sequence[Tuple[Box, np.ndarray]],
        retain: Optional[int] = None,
    ) -> None:
        """Record ``owner``'s chunk data for ``epoch`` with every holder.

        Arrays are copied once and shared between holders (they are never
        mutated after deposit).  When ``retain`` is set, only the newest
        ``retain`` epochs for this owner survive the call.
        """
        # order="C", not the default order="K": exchange buffers must be
        # C-contiguous, and "K" would preserve e.g. a moveaxis view's
        # permuted strides.
        copied = [(box, np.array(arr, copy=True, order="C")) for box, arr in pairs]
        with self._lock:
            self._deposits[(owner_world, epoch)] = {h: copied for h in holders}
            if retain is not None:
                epochs = sorted(
                    e for (o, e) in self._deposits if o == owner_world
                )
                for stale in epochs[:-retain]:
                    self._deposits.pop((owner_world, stale), None)

    def _live_pairs(
        self, key: Tuple[int, int], dead: frozenset
    ) -> Optional[List[Tuple[Box, np.ndarray]]]:
        holders = self._deposits.get(key)
        if not holders:
            return None
        for holder in sorted(holders):
            if holder not in dead:
                return holders[holder]
        return None

    def fetch(
        self, box: Box, epoch: int, dead: frozenset
    ) -> Optional[Tuple[np.ndarray, bool]]:
        """Best available data for ``box``: ``(array_copy, exact_epoch)``.

        Prefers a deposit at exactly ``epoch`` (any owner, live holder);
        otherwise falls back to the newest older epoch, flagged stale.
        Returns ``None`` when no live holder has the box at all.
        """
        with self._lock:
            best: Optional[np.ndarray] = None
            best_epoch = -1
            for key in sorted(self._deposits):
                owner, ep = key
                if ep > epoch:
                    continue
                pairs = self._live_pairs(key, dead)
                if pairs is None:
                    continue
                for b, arr in pairs:
                    if b == box and ep > best_epoch:
                        best, best_epoch = arr, ep
            if best is None:
                return None
            return np.array(best, copy=True, order="C"), best_epoch == epoch

    def has_box(self, box: Box, dead: frozenset) -> bool:
        """Is any epoch of ``box`` readable through a live holder?"""
        with self._lock:
            for key in sorted(self._deposits):
                pairs = self._live_pairs(key, dead)
                if pairs is None:
                    continue
                if any(b == box for b, _ in pairs):
                    return True
        return False

    def clear(self) -> None:
        with self._lock:
            self._deposits.clear()


def restore(store, box: Box, epoch: int, dead: frozenset) -> Tuple[np.ndarray, bool]:
    """``store.fetch`` for a box recovery cannot do without: the newest copy
    of ``box`` at or before ``epoch`` through a holder outside ``dead``, as
    ``(array, exact_epoch)``; :class:`DataLossError` if no such copy exists.
    ``store`` is a :class:`BuddyStore` or an :class:`ShmBuddyStore`."""
    got = store.fetch(box, epoch, dead)
    if got is None:
        raise DataLossError(
            f"no live checkpoint holder for {box} at epoch {epoch}",
            lost_boxes=(box,),
        )
    return got


def shared_store(fabric: Fabric, key: str = _STORE_KEY):
    """The fabric-wide buddy store for ``key``, created on first use.

    On the thread executor ``Fabric.shared`` is genuinely fabric-wide, so a
    plain in-memory :class:`BuddyStore` works.  On the process executor the
    fabric is per-rank; when it advertises a ``blackboard_prefix`` the store
    is a :class:`~repro.resilience.shmstore.ShmBuddyStore` over named
    shared-memory segments instead, so deposits are visible to (and survive
    for) every rank process.  Both expose the same interface.
    """
    with fabric.shared_lock:
        store = fabric.shared.get(key)
        if store is None:
            prefix = getattr(fabric, "blackboard_prefix", None)
            if prefix:
                from .shmstore import ShmBuddyStore

                tag = "".join(c for c in key if c.isalnum())[:16]
                store = ShmBuddyStore(f"{prefix}{tag}")
            else:
                store = BuddyStore()
            fabric.shared[key] = store
        return store
