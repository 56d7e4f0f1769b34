"""ShmBuddyStore: buddy checkpoints that survive rank *processes*.

Unit tests pin the store semantics (same contract as the in-memory
``BuddyStore``: exact/stale fetch, holder liveness, supersede on
re-deposit, retain pruning) against real ``/dev/shm`` segments; the
end-to-end test runs crash recovery under the process executor, which is
exactly the case the shm backing exists for — a survivor restoring a dead
*process's* deposits.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.box import Box
from repro.mpisim.errors import RankCrashError
from repro.mpisim.executor import run_spmd
from repro.resilience import CheckpointPolicy, ResilientRedistributor, ShmBuddyStore


@pytest.fixture
def store():
    s = ShmBuddyStore(f"ddrtest{os.getpid()}")
    try:
        yield s
    finally:
        s.clear()


def _pair(value: float, rows: int = 2, cols: int = 3):
    box = Box((0, 0), (cols, rows))
    return box, np.full((rows, cols), value, dtype=np.float32)


class TestShmBuddyStore:
    def test_requires_prefix(self):
        with pytest.raises(ValueError):
            ShmBuddyStore("")

    def test_fetch_exact_epoch(self, store):
        box, arr = _pair(1.0)
        store.deposit(0, 1, holders=(1,), pairs=[(box, arr)])
        got = store.fetch(box, 1, dead=frozenset())
        assert got is not None
        data, exact = got
        assert exact and np.array_equal(data, arr)
        assert data.flags["C_CONTIGUOUS"]

    def test_fetch_falls_back_to_newest_older_epoch(self, store):
        box, old = _pair(1.0)
        _, older = _pair(0.5)
        store.deposit(0, 1, holders=(1,), pairs=[(box, older)])
        store.deposit(0, 2, holders=(1,), pairs=[(box, old)])
        data, exact = store.fetch(box, 5, dead=frozenset())
        assert not exact
        assert np.array_equal(data, old)  # newest epoch <= requested

    def test_fetch_ignores_future_epochs(self, store):
        box, arr = _pair(3.0)
        store.deposit(0, 7, holders=(1,), pairs=[(box, arr)])
        assert store.fetch(box, 3, dead=frozenset()) is None

    def test_all_holders_dead_means_unreadable(self, store):
        box, arr = _pair(2.0)
        store.deposit(0, 1, holders=(1, 2), pairs=[(box, arr)])
        assert store.fetch(box, 1, dead=frozenset({1, 2})) is None
        assert store.fetch(box, 1, dead=frozenset({1})) is not None
        assert store.has_box(box, dead=frozenset({1}))
        assert not store.has_box(box, dead=frozenset({1, 2}))

    def test_redeposit_supersedes(self, store):
        box, first = _pair(1.0)
        _, second = _pair(9.0)
        store.deposit(0, 1, holders=(1,), pairs=[(box, first)])
        store.deposit(0, 1, holders=(1,), pairs=[(box, second)])
        data, exact = store.fetch(box, 1, dead=frozenset())
        assert exact and np.array_equal(data, second)
        assert {e for o, e, *_ in store._scan() if o == 0} == {1}

    def test_retain_prunes_old_epochs(self, store):
        box, arr = _pair(1.0)
        for epoch in (1, 2, 3, 4):
            store.deposit(0, epoch, holders=(1,), pairs=[(box, arr)], retain=2)
        assert {e for o, e, *_ in store._scan() if o == 0} == {3, 4}

    def test_deposit_copies(self, store):
        box, arr = _pair(5.0)
        store.deposit(0, 1, holders=(1,), pairs=[(box, arr)])
        arr[:] = -1.0  # caller mutates after deposit; store is unaffected
        data, _ = store.fetch(box, 1, dead=frozenset())
        assert np.all(data == 5.0)

    def test_survives_owner_tracking(self, store):
        # Segments live in /dev/shm under the prefix; clear() reaps them.
        box, arr = _pair(1.0)
        store.deposit(3, 2, holders=(0,), pairs=[(box, arr)])
        names = [n for n in os.listdir("/dev/shm") if n.startswith(store.prefix)]
        assert len(names) == 1
        store.clear()
        assert not [
            n for n in os.listdir("/dev/shm") if n.startswith(store.prefix)
        ]


# -- end to end: crash recovery across process boundaries ---------------------

SIDE = 24


def _slab(rank: int, n: int) -> Box:
    base, extra = divmod(SIDE, n)
    start = rank * base + min(rank, extra)
    rows = base + (1 if rank < extra else 0)
    return Box((0, start), (SIDE, rows))


def _field() -> np.ndarray:
    return np.arange(SIDE * SIDE, dtype=np.float32).reshape(SIDE, SIDE)


def _rows(box: Box) -> np.ndarray:
    return _field()[box.offset[1] : box.offset[1] + box.dims[1], :]


def _crash_worker(comm):
    own = _slab(comm.rank, comm.size)
    rr = ResilientRedistributor(
        comm, ndims=2, dtype=np.float32,
        policy=CheckpointPolicy(replicas=1, retain=2),
    )
    rr.setup(own=[own], need=own)
    data = _rows(own).copy()
    out = rr.gather_need(data)  # epoch 1: everyone healthy
    assert np.array_equal(out, _rows(own))
    if comm.rank == 2:
        raise RankCrashError("test: rank 2 killed")
    out = rr.gather_need(data)  # epoch 2: rank 2 dies; survivors recover
    assert np.array_equal(out, _rows(own))
    return {
        "rank": comm.rank,
        "recoveries": rr.recoveries,
        "adopted": len(rr.adopted_boxes),
        "stale": len(rr.stale_boxes),
        "store": type(rr.store).__name__,
    }


def test_process_executor_crash_recovery_uses_shm_store():
    """A forked rank dies; survivors restore its slab from /dev/shm.

    Under the process executor ``fabric.shared`` is per-process, so the
    in-memory BuddyStore could never serve a dead peer's deposits —
    ``shared_store`` must hand out the shm-backed twin, and recovery must
    complete bitwise.  Rank 2 died *before* depositing its epoch-2
    generation, so the adopter restores the epoch-1 checkpoint: exactly
    one adopted box, reported stale.
    """
    results = run_spmd(
        4, _crash_worker, resilient=True, executor="process",
        deadlock_timeout=20.0,
    )
    survivors = [r for r in results if isinstance(r, dict)]
    assert len(survivors) == 3
    assert all(r["store"] == "ShmBuddyStore" for r in survivors)
    assert all(r["recoveries"] == 1 for r in survivors)
    assert sum(r["adopted"] for r in survivors) == 1
    assert sum(r["stale"] for r in survivors) == 1


def test_thread_executor_keeps_inmemory_store():
    """No blackboard prefix (thread fabric) -> the in-memory BuddyStore."""

    def fn(comm):
        rr = ResilientRedistributor(comm, ndims=2, dtype=np.float32)
        own = _slab(comm.rank, comm.size)
        rr.setup(own=[own], need=own)
        rr.gather_need(_rows(own).copy())
        return type(rr.store).__name__

    results = run_spmd(2, fn, resilient=True, executor="thread")
    assert results == ["BuddyStore", "BuddyStore"]
