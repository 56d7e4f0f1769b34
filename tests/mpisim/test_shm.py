"""Shared-memory staging: segment lifecycle, pool reuse, leak regression."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.mpisim import run_spmd
from repro.mpisim.errors import CommunicatorError, ProcessFailedError
from repro.mpisim.shm import (
    HEADER_BYTES,
    MIN_SEGMENT_BYTES,
    ShmArena,
    ShmStagingPool,
    attach,
    sweep_prefix,
)


def shm_names(prefix: str = "ddr") -> set[str]:
    if not os.path.isdir("/dev/shm"):
        return set()
    return {n for n in os.listdir("/dev/shm") if n.startswith(prefix)}


class TestSegment:
    def test_create_view_destroy(self):
        arena = ShmArena("ddrtestseg")
        try:
            segment = arena.create(1024)
            assert segment.capacity == 1024
            view = segment.view(np.float32, 256)
            view[:] = np.arange(256, dtype=np.float32)
            again = segment.view(np.float32, 256)
            np.testing.assert_array_equal(again, np.arange(256, dtype=np.float32))
        finally:
            arena.close()
        assert not shm_names("ddrtestseg")

    def test_view_overflow_raises(self):
        arena = ShmArena("ddrtestovf")
        try:
            segment = arena.create(64)
            with pytest.raises(CommunicatorError):
                segment.view(np.float64, 9)  # 72 bytes > 64 capacity
        finally:
            arena.close()

    def test_drained_flag_round_trip(self):
        arena = ShmArena("ddrtestflag")
        try:
            segment = arena.create(128)
            assert not segment.drained
            segment.mark_drained()
            assert segment.drained
            segment.mark_in_flight()
            assert not segment.drained
        finally:
            arena.close()

    def test_header_reserved(self):
        arena = ShmArena("ddrtesthdr")
        try:
            segment = arena.create(64)
            assert segment.shm.size == 64 + HEADER_BYTES
            view = segment.view(np.uint8, 64)
            view[:] = 0xAB
            segment.mark_drained()  # flag write must not touch the payload
            assert (np.asarray(view) == 0xAB).all()
        finally:
            arena.close()


class TestAttach:
    def test_attach_by_name(self):
        arena = ShmArena("ddrtestatt")
        try:
            segment = arena.create(256)
            segment.view(np.int32, 4)[:] = [1, 2, 3, 4]
            found = attach(segment.name)
            np.testing.assert_array_equal(
                found.view(np.int32, 4), [1, 2, 3, 4]
            )
        finally:
            arena.close()

    def test_attach_missing_is_typed(self):
        with pytest.raises(ProcessFailedError, match="gone"):
            attach("ddrtestnope_does_not_exist")


def in_flight(pool: ShmStagingPool) -> int:
    """Segments of ``pool`` currently in flight (acquired, not drained)."""
    return sum(not seg.drained for segs in pool._classes.values() for seg in segs)


class TestStagingPool:
    def test_drained_segment_reused(self):
        pool = ShmStagingPool("ddrtestpool")
        try:
            first = pool.acquire(1000)
            assert in_flight(pool) == 1
            first.mark_drained()
            second = pool.acquire(1000)
            assert second is first  # steady state: no new shm_open
            assert in_flight(pool) == 1
        finally:
            pool.close()
        assert not shm_names("ddrtestpool")

    def test_in_flight_segment_not_reused(self):
        pool = ShmStagingPool("ddrtestpool2")
        try:
            first = pool.acquire(1000)
            second = pool.acquire(1000)  # first still in flight
            assert second is not first
            assert in_flight(pool) == 2
        finally:
            pool.close()

    def test_size_classes_are_pow2(self):
        assert ShmStagingPool._size_class(1) == MIN_SEGMENT_BYTES
        assert ShmStagingPool._size_class(MIN_SEGMENT_BYTES) == MIN_SEGMENT_BYTES
        assert ShmStagingPool._size_class(MIN_SEGMENT_BYTES + 1) == 2 * MIN_SEGMENT_BYTES
        assert ShmStagingPool._size_class(100_000) == 131072

    def test_different_classes_do_not_mix(self):
        pool = ShmStagingPool("ddrtestpool3")
        try:
            small = pool.acquire(100)
            small.mark_drained()
            big = pool.acquire(100_000)
            assert big is not small
        finally:
            pool.close()


class TestLeakRegression:
    """Satellite: abnormal rank exit must not leak /dev/shm entries."""

    def test_hard_killed_rank_segments_swept(self):
        """A rank that os._exit()s mid-exchange never runs its cleanup;
        the parent's prefix sweep must reap its segments."""
        from repro.mpisim import RankFailure

        def fn(comm):
            other = 1 - comm.rank
            payload = np.zeros(65536, dtype=np.float32)  # well above SHM_MIN_BYTES
            if comm.rank == 0:
                comm.Send(payload, dest=other, transport="shm")
                os._exit(7)  # die with the segment still staged
            time.sleep(1.0)  # rank 1 never receives; segment stays in flight
            return True

        before = shm_names()
        with pytest.raises(RankFailure):
            run_spmd(2, fn, executor="process", deadlock_timeout=10.0)
        leaked = shm_names() - before
        assert not leaked, f"leaked shm segments: {leaked}"

    def test_crashing_rank_segments_swept(self):
        from repro.mpisim import RankFailure

        def fn(comm):
            other = 1 - comm.rank
            payload = np.zeros(65536, dtype=np.float32)
            comm.Send(payload, dest=other, transport="shm")
            if comm.rank == 0:
                raise RuntimeError("boom after staging")
            comm.Recv(np.zeros(65536, dtype=np.float32), source=other)
            return True

        before = shm_names()
        with pytest.raises(RankFailure):
            run_spmd(2, fn, executor="process", deadlock_timeout=10.0)
        leaked = shm_names() - before
        assert not leaked, f"leaked shm segments: {leaked}"

    def test_sweep_prefix_returns_removed_names(self):
        arena = ShmArena("ddrtestsweep")
        segment = arena.create(256)
        name = segment.name
        # Simulate an abnormal exit: the arena never runs close().
        removed = sweep_prefix("ddrtestsweep")
        assert name in removed
        assert not shm_names("ddrtestsweep")
        assert sweep_prefix("ddrtestsweep") == []  # idempotent
