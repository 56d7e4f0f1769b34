"""CheckpointPolicy buddy placement and BuddyStore semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Box
from repro.resilience import (
    BuddyStore,
    CheckpointPolicy,
    DataLossError,
    restore,
    shared_store,
)
from tests.conftest import spmd, thread_only

BOX = Box((0, 0), (4, 2))
OTHER = Box((4, 0), (4, 2))
NOBODY = frozenset()


def data(fill=1.0):
    return np.full(BOX.np_shape(), fill, dtype=np.float64)


class TestPolicy:
    def test_holders_are_self_then_buddies(self):
        policy = CheckpointPolicy(stride=1, replicas=2)
        assert policy.holder_world_ranks(0, [10, 11, 12, 13]) == (10, 11, 12)
        assert policy.holder_world_ranks(3, [10, 11, 12, 13]) == (13, 10, 11)

    def test_stride_spreads_replicas(self):
        policy = CheckpointPolicy(stride=2, replicas=1)
        assert policy.holder_world_ranks(1, [10, 11, 12, 13]) == (11, 13)

    @pytest.mark.parametrize(
        "stride, replicas, index, dead, adopter",
        [
            (1, 1, 0, frozenset(), 10),  # a live owner keeps its chunk
            (1, 2, 0, frozenset({10}), 11),  # the first live buddy
            (1, 2, 0, frozenset({10, 11}), 12),  # ... skipping a dead one
            (2, 1, 1, frozenset({11}), 13),  # stride 2: the buddy two over
            (1, 1, 2, frozenset({12, 13}), 10),  # every holder dead: first survivor
            (1, 1, 0, frozenset({10, 11}), 12),  # ... which need not be index 0
        ],
    )
    def test_adopter(self, stride, replicas, index, dead, adopter):
        policy = CheckpointPolicy(stride=stride, replicas=replicas)
        assert policy.adopter(index, [10, 11, 12, 13], dead) == adopter

    def test_wraparound_deduplicates(self):
        policy = CheckpointPolicy(stride=1, replicas=5)
        assert policy.holder_world_ranks(0, [7, 9]) == (7, 9)

    def test_validation(self):
        with pytest.raises(ValueError, match="stride"):
            CheckpointPolicy(stride=0)
        with pytest.raises(ValueError, match="replicas"):
            CheckpointPolicy(replicas=-1)
        with pytest.raises(ValueError, match="retain"):
            CheckpointPolicy(retain=0)


class TestBuddyStore:
    def test_fetch_exact_epoch_returns_copy(self):
        store = BuddyStore()
        store.deposit(0, 3, (0, 1), [(BOX, data(7.0))])
        fetched, exact = store.fetch(BOX, 3, NOBODY)
        assert exact
        assert np.array_equal(fetched, data(7.0))
        fetched[:] = 0.0  # mutating the fetched copy must not touch the store
        again, _ = store.fetch(BOX, 3, NOBODY)
        assert np.array_equal(again, data(7.0))

    def test_deposit_copies_the_source(self):
        store = BuddyStore()
        source = data(2.0)
        store.deposit(0, 0, (0,), [(BOX, source)])
        source[:] = -1.0
        fetched, _ = store.fetch(BOX, 0, NOBODY)
        assert np.array_equal(fetched, data(2.0))

    def test_retention_prunes_old_epochs(self):
        store = BuddyStore()
        for epoch in range(3):
            store.deposit(0, epoch, (0,), [(BOX, data(float(epoch)))], retain=2)
        assert sorted(e for o, e in store._deposits if o == 0) == [1, 2]
        assert store.fetch(BOX, 0, NOBODY) is None

    def test_stale_fallback_flags_inexact(self):
        store = BuddyStore()
        store.deposit(0, 1, (0,), [(BOX, data(5.0))])
        fetched, exact = store.fetch(BOX, 4, NOBODY)
        assert not exact
        assert np.array_equal(fetched, data(5.0))

    def test_dead_holder_falls_back_to_buddy(self):
        store = BuddyStore()
        store.deposit(0, 0, (0, 1), [(BOX, data(9.0))])
        fetched, exact = store.fetch(BOX, 0, frozenset({0}))
        assert exact and np.array_equal(fetched, data(9.0))
        assert store.has_box(BOX, frozenset({0}))

    def test_all_holders_dead_means_lost(self):
        store = BuddyStore()
        store.deposit(0, 0, (0, 1), [(BOX, data())])
        assert store.fetch(BOX, 0, frozenset({0, 1})) is None
        assert not store.has_box(BOX, frozenset({0, 1}))
        assert not store.has_box(OTHER, NOBODY)

    def test_restore_raises_data_loss_naming_the_box(self):
        store = BuddyStore()
        store.deposit(0, 0, (0, 1), [(BOX, data(3.0))])
        fetched, exact = restore(store, BOX, 0, frozenset({0}))
        assert exact and np.array_equal(fetched, data(3.0))
        with pytest.raises(DataLossError, match="no live checkpoint holder") as info:
            restore(store, BOX, 0, frozenset({0, 1}))
        assert info.value.lost_boxes == (BOX,)

    def test_fetch_is_c_contiguous_even_from_views(self):
        store = BuddyStore()
        view = np.arange(8, dtype=np.float64).reshape(4, 2).T  # permuted strides
        assert not view.flags["C_CONTIGUOUS"]
        store.deposit(0, 0, (0,), [(BOX, view)])
        fetched, _ = store.fetch(BOX, 0, NOBODY)
        assert fetched.flags["C_CONTIGUOUS"]
        assert np.array_equal(fetched, view)

    def test_clear(self):
        store = BuddyStore()
        store.deposit(0, 0, (0,), [(BOX, data())])
        store.clear()
        assert store.fetch(BOX, 0, NOBODY) is None


class TestSharedStore:
    # Compares id(store) across ranks: equal only when they share one address space.
    @thread_only
    def test_one_store_per_fabric(self):
        def fn(comm):
            store = shared_store(comm.fabric)
            ids = comm.allgather(id(store))
            assert len(set(ids)) == 1
            return True

        assert all(spmd(3, fn))
