"""Buffer-validation caching and steady-state allocation behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Box, BufferCache, GhostExchanger, Redistributor
from repro.mpisim import TRANSPORT_ZEROCOPY, transport
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
        no staging allocations and only direct copies (zero-copy default)."""

        def fn(comm):
            red, own = _setup_redistributor(comm, backend=backend)
            out = np.zeros((16, 4))
            red.exchange([own], out)
            expect = out.copy()
            _, snap = counted_region(
                comm, lambda: [red.exchange([own], out) for _ in range(5)]
            )
            assert np.array_equal(out, expect)
            return snap

        with transport(TRANSPORT_ZEROCOPY):  # staged transports allocate by design
            snap = spmd(4, fn)[0]
        assert snap["allocations"] == 0
        assert snap["copies"]["pack"] == 0
        assert snap["copies"]["unpack"] == 0
        assert snap["copies"]["payload"] == 0
        assert snap["copies"]["direct"] > 0

    @thread_only
    def test_gather_need_reuse_out(self, backend):
        def fn(comm):
            red, own = _setup_redistributor(comm, backend=backend)
            first = red.gather_need([own], reuse_out=True)
            (_, second), snap = counted_region(
                comm, lambda: (None, red.gather_need([own], reuse_out=True))
            )
            assert second is first
            fresh = red.gather_need([own])
            assert fresh is not first and np.array_equal(fresh, first)
            return snap

        with transport(TRANSPORT_ZEROCOPY):
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


class TestGhostExchangerReuse:
    @thread_only
    def test_reuse_buffer_returns_same_array(self):
        domain = Box((0,), (16,))

        def fn(comm):
            own = Box((4 * comm.rank,), (4,))
            ghosts = GhostExchanger(comm, ndims=1, dtype=np.float64, reuse_buffer=True)
            ghosts.setup(own=own, halo=1, domain=domain)
            interior = np.arange(4, dtype=np.float64) + 10 * comm.rank
            a = ghosts.exchange(interior)
            (_, b), snap = counted_region(
                comm, lambda: (None, ghosts.exchange(interior))
            )
            assert b is a
            # Interior cells plus up-to-date neighbours.
            assert np.array_equal(ghosts.interior_view(b), interior)
            return snap

        with transport(TRANSPORT_ZEROCOPY):
            snap = spmd(4, fn)[0]
        assert snap["allocations"] == 0

    def test_default_returns_fresh_arrays(self):
        domain = Box((0,), (8,))

        def fn(comm):
            own = Box((4 * comm.rank,), (4,))
            ghosts = GhostExchanger(comm, ndims=1, dtype=np.float64)
            ghosts.setup(own=own, halo=1, domain=domain)
            interior = np.arange(4, dtype=np.float64)
            a = ghosts.exchange(interior)
            b = ghosts.exchange(interior)
            assert a is not b and np.array_equal(a, b)
            return True

        assert all(spmd(2, fn))


class TestTransportParameter:
    def test_invalid_transport_rejected(self):
        def fn(comm):
            with pytest.raises(ValueError):
                Redistributor(comm, ndims=1, dtype=np.float64, transport="bogus")
            red = Redistributor(comm, ndims=1, dtype=np.float64)
            with pytest.raises(ValueError):
                red.set_transport("smoke-signals")
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
