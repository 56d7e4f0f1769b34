"""Collective operations on the in-process MPI runtime."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpisim import FLOAT, CommunicatorError, SubarrayType
from tests.conftest import spmd

SIZES = [1, 2, 3, 5, 8]


@pytest.mark.parametrize("size", SIZES)
class TestBasicCollectives:
    def test_barrier(self, size):
        def fn(comm):
            for _ in range(3):
                comm.Barrier()
            return True

        assert all(spmd(size, fn))

    def test_bcast_array(self, size):
        """An ndarray through the object ``bcast`` arrives as a private copy."""

        def fn(comm):
            buf = np.arange(6, dtype=np.float64) if comm.rank == 0 else None
            got = comm.bcast(buf, root=0)
            assert got.tolist() == [0, 1, 2, 3, 4, 5]
            if comm.rank != 0:
                got[0] = -1.0  # must not reach the root's array
            comm.Barrier()
            if comm.rank == 0:
                assert buf[0] == 0.0

        spmd(size, fn)

    def test_bcast_object(self, size):
        def fn(comm):
            obj = {"n": 42} if comm.rank == 0 else None
            got = comm.bcast(obj, root=0)
            assert got == {"n": 42}

        spmd(size, fn)

    def test_gather_objects(self, size):
        def fn(comm):
            got = comm.gather(comm.rank * 10, root=0)
            if comm.rank == 0:
                assert got == [r * 10 for r in range(comm.size)]
            else:
                assert got is None

        spmd(size, fn)

    def test_allgather_objects(self, size):
        def fn(comm):
            got = comm.allgather(comm.rank**2)
            assert got == [r**2 for r in range(comm.size)]

        spmd(size, fn)

    def test_gather_arrays(self, size):
        """The object ``gather`` carries ndarrays (the volren compositors'
        tiles): the root gets one array per rank, in rank order."""

        def fn(comm):
            got = comm.gather(np.full(3, comm.rank, dtype=np.int64), root=0)
            if comm.rank == 0:
                for r in range(comm.size):
                    assert got[r].tolist() == [r, r, r]

        spmd(size, fn)

    def test_allgather_arrays(self, size):
        def fn(comm):
            got = comm.allgather(np.array([comm.rank + 0.5]))
            assert [a[0] for a in got] == [r + 0.5 for r in range(comm.size)]

        spmd(size, fn)


class TestAlltoallw:
    def test_transpose_distribution(self):
        """Classic row->column redistribution of a PxP matrix."""

        def fn(comm):
            size, rank = comm.size, comm.rank
            g = np.arange(size * size, dtype=np.float32).reshape(size, size)
            recv = np.full((size, size), -1, dtype=np.float32)
            stypes = [
                SubarrayType(FLOAT, (size, size), (1, 1), (rank, d)) for d in range(size)
            ]
            rtypes = [
                SubarrayType(FLOAT, (size, size), (1, 1), (s, rank)) for s in range(size)
            ]
            comm.Alltoallw(g, stypes, recv, rtypes)
            assert np.array_equal(recv[:, rank], g[:, rank])

        spmd(5, fn)

    def test_none_lanes(self):
        """Ranks with nothing to exchange pass None types."""

        def fn(comm):
            size, rank = comm.size, comm.rank
            stypes = [None] * size
            rtypes = [None] * size
            if rank == 0:
                stypes[1] = FLOAT.Create_contiguous(4)
            if rank == 1:
                rtypes[0] = FLOAT.Create_contiguous(4)
            send = np.arange(4, dtype=np.float32)
            recv = np.zeros(4, dtype=np.float32)
            comm.Alltoallw(send if rank == 0 else None, stypes,
                           recv if rank == 1 else None, rtypes)
            if rank == 1:
                assert recv.tolist() == [0, 1, 2, 3]

        spmd(3, fn)

    def test_self_lane_mismatch_raises(self):
        def fn(comm):
            size, rank = comm.size, comm.rank
            stypes = [None] * size
            rtypes = [None] * size
            stypes[rank] = FLOAT.Create_contiguous(4)  # no matching recv type
            with pytest.raises(CommunicatorError):
                comm.Alltoallw(np.zeros(4, dtype=np.float32), stypes,
                               np.zeros(4, dtype=np.float32), rtypes)

        spmd(2, fn)

    def test_wrong_slot_count_raises(self):
        def fn(comm):
            with pytest.raises(CommunicatorError):
                comm.Alltoallw(None, [None], None, [None])

        spmd(3, fn)


class TestSplitDup:
    def test_split_even_odd(self):
        def fn(comm):
            sub = comm.Split(comm.rank % 2, key=comm.rank)
            members = [r for r in range(comm.size) if r % 2 == comm.rank % 2]
            assert sub.size == len(members)
            assert sub.rank == members.index(comm.rank)
            got = sub.allgather(comm.rank)
            assert got == members
            return sub.size

        spmd(5, fn)

    def test_split_undefined_color(self):
        def fn(comm):
            sub = comm.Split(-1 if comm.rank == 0 else 0)
            if comm.rank == 0:
                assert sub is None
            else:
                assert sub.size == comm.size - 1

        spmd(4, fn)

    def test_split_key_reorders(self):
        def fn(comm):
            sub = comm.Split(0, key=-comm.rank)  # reversed order
            assert sub.rank == comm.size - 1 - comm.rank

        spmd(4, fn)

    def test_split_isolated_traffic(self):
        """Messages on a subcommunicator must not match the parent's."""

        def fn(comm):
            sub = comm.Split(0, key=comm.rank)
            if comm.rank == 0:
                comm.Send(np.array([1.0]), dest=1, tag=5)
                sub.Send(np.array([2.0]), dest=1, tag=5)
            elif comm.rank == 1:
                buf = np.zeros(1)
                sub.Recv(buf, source=0, tag=5)
                assert buf[0] == 2.0
                comm.Recv(buf, source=0, tag=5)
                assert buf[0] == 1.0

        spmd(3, fn)

    def test_dup(self):
        """A duplicate is ``Split(0, key=rank)``: same shape, its own id and
        its own collective traffic."""

        def fn(comm):
            dup = comm.Split(0, key=comm.rank)
            assert dup.size == comm.size and dup.rank == comm.rank
            assert dup.comm_id != comm.comm_id
            assert sum(dup.allgather(1)) == comm.size

        spmd(3, fn)
