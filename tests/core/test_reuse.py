"""Buffer-validation caching and steady-state allocation behaviour."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core import Box, BufferCache, Redistributor
from repro.mpisim import TRANSPORT_PACKED, TRANSPORT_SHM, TRANSPORT_ZEROCOPY
from repro.utils import StagingPool
from tests.conftest import counted_region, spmd, thread_only


class TestBufferCache:
    def test_hit_requires_same_identity_and_geometry(self):
        cache = BufferCache()
        own = [np.zeros(8), np.ones(8)]
        need = np.zeros(4)
        sig = cache.signature(own, need)
        cache.store(sig, own, need)
        assert cache.lookup(cache.signature(own, need)) == (own, need)
        # A different (equal-valued) array is a different buffer set.
        assert cache.lookup(cache.signature([np.zeros(8), own[1]], need)) is None
        # In-place reshaping changes the key even though the id is stable.
        own[0].shape = (2, 4)
        assert cache.lookup(cache.signature(own, need)) is None

    def test_non_ndarray_inputs_never_cached(self):
        cache = BufferCache()
        own = [[1.0, 2.0]]
        sig = cache.signature(own, None)
        assert sig is None
        cache.store(sig, own, None)  # no-op
        assert cache.lookup(sig) is None

    def test_no_need_buffer_is_part_of_the_key(self):
        cache = BufferCache()
        own = [np.zeros(8)]
        need = np.zeros(8)
        cache.store(cache.signature(own, need), own, need)
        assert cache.lookup(cache.signature(own, None)) is None


class TestStagingPool:
    def test_reuses_per_geometry(self):
        pool = StagingPool()
        a = pool.take((4, 4), np.float64)
        assert pool.take((4, 4), np.float64) is a
        assert pool.take((4, 4), np.float32) is not a
        assert pool.take((16,), np.float64) is not a
        pool.clear()
        assert pool.take((4, 4), np.float64) is not a

    def test_take_filled(self):
        pool = StagingPool()
        a = pool.take_filled((3,), np.int32, 7)
        assert a.tolist() == [7, 7, 7]
        a[:] = 0
        assert pool.take_filled((3,), np.int32, 7).tolist() == [7, 7, 7]

    def test_byte_budget_evicts_least_recently_taken(self):
        pool = StagingPool(max_bytes=2 * 64)  # room for two float64 (8,) arrays
        a = pool.take((8,), np.float64)
        b = pool.take((8,), np.float32)  # 32 bytes, still under budget
        a2 = pool.take((8,), np.float64)  # refresh a: now b is oldest
        assert a2 is a
        pool.take((16,), np.float32)  # 64 bytes -> over budget, evict b
        assert pool.evictions == 1
        assert pool.take((8,), np.float64) is a  # a survived (recently used)
        assert pool.take((8,), np.float32) is not b  # b was evicted
        assert pool.current_bytes <= pool.max_bytes

    def test_oversized_request_never_evicts_itself(self):
        pool = StagingPool(max_bytes=16)
        big = pool.take((100,), np.float64)  # 800 bytes > budget
        assert pool.take((100,), np.float64) is big  # still cached
        assert pool.current_bytes == 800

    def test_eviction_counted_in_transfer_counters_and_metrics(self):
        from repro.utils.timing import counting_transfers

        pool = StagingPool(max_bytes=64)
        with counting_transfers() as counters:
            pool.take((8,), np.float64)
            pool.take((4,), np.float64)  # evicts the (8,) array
        assert pool.evictions == 1
        snap = counters.snapshot()
        assert snap["evictions"] == 1
        assert snap["bytes_evicted"] == 64

    def test_clear_resets_accounting(self):
        pool = StagingPool(max_bytes=1024)
        pool.take((8,), np.float64)
        pool.clear()
        assert pool.current_bytes == 0


#: A 16^3 float32 array in single z-planes dealt round-robin to four ranks,
#: each needing a quarter column: 4 planned rounds, one merged round of 64
#: blocks (16 planes x 4 quadrants) and 16 KiB an exchange.
ROUND_ROBIN_BLOCKS, ROUND_ROBIN_BYTES = 64, 16 ** 3 * 4


def _round_robin(comm, **kwargs):
    """A round-robin Redistributor, its chunk buffers and need buffer, warm."""
    r = comm.rank
    own = [Box((0, 0, z), (16, 16, 1)) for z in range(r, 16, 4)]
    need = Box((8 * (r % 2), 8 * (r // 2), 0), (8, 8, 16))
    red = Redistributor(comm, ndims=3, dtype=np.float32, **kwargs)
    red.setup(own=own, need=need)
    chunks = [np.full(box.np_shape(), box.offset[2], np.float32) for box in own]
    out = np.full(need.np_shape(), -1, np.float32)
    red.exchange(chunks, out)
    return red, chunks, out


def _round_robin_ok(out) -> bool:
    return bool((out == np.arange(16, dtype=np.float32)[:, None, None]).all())


def _setup_redistributor(comm, **kwargs):
    r = comm.rank
    red = Redistributor(comm, ndims=2, dtype=np.float64, **kwargs)
    red.setup(own=[Box((0, 4 * r), (16, 4))], need=Box((4 * r, 0), (4, 16)))
    own = np.arange(64, dtype=np.float64).reshape(4, 16) + 1000 * r
    return red, own


@pytest.mark.parametrize("backend", ["alltoallw", "p2p"])
class TestSteadyStateAllocations:
    @thread_only
    def test_repeated_exchange_allocates_nothing(self, backend):
        """The headline guarantee: a warmed-up redistribution loop performs
        no staging allocations and only direct copies on the zero-copy wire
        (staged transports allocate by design), whatever the process default."""

        def fn(comm):
            red, own = _setup_redistributor(comm, backend=backend, transport=TRANSPORT_ZEROCOPY)
            out = np.zeros((16, 4))
            red.exchange([own], out)
            expect = out.copy()
            _, snap = counted_region(
                comm, lambda: [red.exchange([own], out) for _ in range(5)]
            )
            assert np.array_equal(out, expect)
            return snap

        snap = spmd(4, fn)[0]
        assert snap["allocations"] == 0
        assert snap["copies"]["pack"] == 0
        assert snap["copies"]["unpack"] == 0
        assert snap["copies"]["payload"] == 0
        assert snap["copies"]["direct"] > 0

    @thread_only
    def test_merged_round_copies_every_block_once(self, backend):
        """Many chunks a rank, one merged round: each warm exchange is
        exactly one direct copy per block, of exactly the array's bytes."""

        def fn(comm):
            red, chunks, out = _round_robin(comm, backend=backend, transport=TRANSPORT_ZEROCOPY)
            _, snap = counted_region(
                comm, lambda: [red.exchange(chunks, out) for _ in range(5)]
            )
            assert _round_robin_ok(out)
            return snap

        snap = spmd(4, fn)[0]
        assert snap["allocations"] == 0
        direct = 5 * ROUND_ROBIN_BLOCKS
        assert snap["copies"] == {"pack": 0, "unpack": 0, "payload": 0, "direct": direct}
        assert snap["bytes_copied"]["direct"] == 5 * ROUND_ROBIN_BYTES

    @thread_only
    def test_gather_need_reuse_out(self, backend):
        def fn(comm):
            red, own = _setup_redistributor(comm, backend=backend, transport=TRANSPORT_ZEROCOPY)
            first = red.gather_need([own], reuse_out=True)
            (_, second), snap = counted_region(
                comm, lambda: (None, red.gather_need([own], reuse_out=True))
            )
            assert second is first
            fresh = red.gather_need([own])
            assert fresh is not first and np.array_equal(fresh, first)
            return snap

        snap = spmd(4, fn)[0]
        assert snap["allocations"] == 0

    def test_swapping_buffers_revalidates_correctly(self, backend):
        """A cache miss (new arrays) must still validate and still work."""

        def fn(comm):
            red, own = _setup_redistributor(comm, backend=backend)
            out = np.zeros((16, 4))
            red.exchange([own], out)
            other = own.copy() + 0.5
            out2 = np.zeros((16, 4))
            red.exchange([other], out2)
            assert np.array_equal(out2, out + 0.5)
            # Bad geometry is still rejected after the cache was warmed.
            with pytest.raises(ValueError):
                red.exchange([np.zeros(63)], out)
            return True

        assert all(spmd(4, fn))

    def test_swapping_one_of_several_chunks_mid_loop(self, backend):
        """A new object for one chunk between warm exchanges: its new values
        arrive, and the old object is no longer read."""

        def fn(comm):
            red, chunks, out = _round_robin(comm, backend=backend)
            for step in range(4):
                if step == 2:
                    old = chunks[1]
                    chunks[1] = old + 100
                    old.fill(-7)
                out.fill(-1)
                red.exchange(chunks, out)
            expect = np.arange(16, dtype=np.float32)
            expect[4:8] += 100  # every rank's chunks[1]: planes 4..7
            return bool((out == expect[:, None, None]).all())

        assert all(spmd(4, fn))


@pytest.mark.parametrize("drop", ["del", "invalidate"])
def test_no_buffer_outlives_its_mapping(drop):
    """Warm exchanges leave copy programs on the mappings' datatypes; once
    the Redistributors are gone (or their mappings invalidated) no chunk or
    need buffer of any rank is still referenced."""

    def fn(comm):
        red, chunks, out = _round_robin(comm)
        for _ in range(3):
            red.exchange(chunks, out)
        assert _round_robin_ok(out)
        refs = [weakref.ref(buffer) for buffer in chunks + [out]]
        del chunks, out
        if drop == "invalidate":
            red.mapping.invalidate()
        else:
            del red
        comm.Barrier()  # every rank has let go
        if drop == "del":
            gc.collect()
        comm.Barrier()
        return [ref() is None for ref in refs]

    assert spmd(4, fn) == [[True] * 5] * 4


#: One warm round-robin exchange by transport, whatever the backend:
#: ``(allocations, copies)`` over its 12 remote lanes of 1 KiB (4 blocks
#: each) and every rank's self lane (4 blocks).
LANE_PROFILES = {
    TRANSPORT_ZEROCOPY: (0, {"pack": 0, "unpack": 0, "payload": 0, "direct": 64}),
    TRANSPORT_SHM: (0, {"pack": 48, "unpack": 48, "payload": 12, "direct": 16}),
    TRANSPORT_PACKED: (16, {"pack": 64, "unpack": 64, "payload": 0, "direct": 0}),
}


class TestTransportParameter:
    def test_invalid_transport_rejected(self):
        def fn(comm):
            for bogus in ("bogus", "smoke-signals"):
                with pytest.raises(ValueError):
                    Redistributor(comm, ndims=1, dtype=np.float64, transport=bogus)
            return True

        assert all(spmd(1, fn))

    def test_packed_transport_still_selectable(self):
        def fn(comm):
            red, own = _setup_redistributor(comm, transport="packed")
            out = np.zeros((16, 4))
            red.exchange([own], out)
            _, snap = counted_region(comm, lambda: red.exchange([own], out))
            return out, snap

        results = spmd(4, fn)
        snap = results[0][1]
        assert snap["copies"]["direct"] == 0
        assert snap["copies"]["pack"] > 0 and snap["copies"]["unpack"] > 0

    @pytest.mark.parametrize("mode", sorted(LANE_PROFILES))
    @pytest.mark.parametrize("backend", ["alltoallw", "p2p"])
    def test_named_transport_reaches_every_lane(self, backend, mode):
        """``transport=`` is the wire of every lane under both protocols,
        not only the collective's, whatever the process default: shm stages
        each remote lane as one payload and zerocopy allocates nothing,
        also on the ``DDR_TRANSPORT`` legs."""

        def fn(comm):
            red, chunks, out = _round_robin(comm, backend=backend, transport=mode)
            _, snap = counted_region(comm, lambda: red.exchange(chunks, out))
            assert _round_robin_ok(out)
            return snap

        snap = spmd(4, fn, executor="thread")[0]
        assert (snap["allocations"], snap["copies"]) == LANE_PROFILES[mode]
