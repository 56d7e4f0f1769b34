"""Point-to-point semantics of the in-process MPI runtime."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpisim import (
    ANY_SOURCE,
    ANY_TAG,
    CommunicatorError,
    FLOAT,
    TRANSPORT_PACKED,
    TRANSPORT_SHM,
    TRANSPORT_ZEROCOPY,
    TruncationError,
)
from tests.conftest import spmd

TRANSPORTS = [TRANSPORT_PACKED, TRANSPORT_ZEROCOPY, TRANSPORT_SHM]

# One send through each typed entry point that shares the post helper, and
# one receive through each entry point that takes a ``source``.
SENDS = {
    "Send": lambda comm, dest, tag, mode: comm.Send(np.zeros(2), dest, tag, transport=mode),
    "Isend": lambda comm, dest, tag, mode: comm.Isend(np.zeros(2), dest, tag, transport=mode),
    "Isend-rendezvous": lambda comm, dest, tag, mode: comm.Isend(
        np.zeros(2), dest, tag, rendezvous=True, transport=mode
    ),
    "send": lambda comm, dest, tag, mode: comm.send("obj", dest, tag),
}
RECEIVES = {
    "Recv": lambda comm, source: comm.Recv(np.zeros(2), source),
    "Irecv": lambda comm, source: comm.Irecv(np.zeros(2), source).wait(),
    "recv": lambda comm, source: comm.recv(source),
    "Iprobe": lambda comm, source: comm.Iprobe(source),
    "purge": lambda comm, source: comm.purge(source),
}


class TestSendRecv:
    def test_basic_roundtrip(self):
        def fn(comm):
            if comm.rank == 0:
                comm.Send(np.arange(10, dtype=np.float64), dest=1, tag=3)
            elif comm.rank == 1:
                buf = np.zeros(10)
                status = comm.Recv(buf, source=0, tag=3)
                assert status.source == 0 and status.tag == 3
                assert buf.tolist() == list(range(10))
            return comm.rank

        assert spmd(2, fn) == [0, 1]

    def test_send_copies_buffer(self):
        """Mutating the send buffer after Send must not affect the receiver."""

        def fn(comm):
            if comm.rank == 0:
                data = np.ones(4)
                comm.Send(data, dest=1)
                data[:] = 99.0
                comm.Barrier()
            else:
                comm.Barrier()
                buf = np.zeros(4)
                comm.Recv(buf, source=0)
                assert buf.tolist() == [1, 1, 1, 1]

        spmd(2, fn)

    def test_tag_matching_out_of_order(self):
        """A receive for tag B must skip an earlier tag-A message."""

        def fn(comm):
            if comm.rank == 0:
                comm.Send(np.array([1.0]), dest=1, tag=10)
                comm.Send(np.array([2.0]), dest=1, tag=20)
            else:
                buf = np.zeros(1)
                comm.Recv(buf, source=0, tag=20)
                assert buf[0] == 2.0
                comm.Recv(buf, source=0, tag=10)
                assert buf[0] == 1.0

        spmd(2, fn)

    def test_fifo_per_source_tag(self):
        def fn(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.Send(np.array([float(i)]), dest=1, tag=0)
            else:
                buf = np.zeros(1)
                for i in range(5):
                    comm.Recv(buf, source=0, tag=0)
                    assert buf[0] == float(i)

        spmd(2, fn)

    def test_any_source_any_tag(self):
        def fn(comm):
            if comm.rank == 2:
                got = set()
                buf = np.zeros(1)
                for _ in range(2):
                    status = comm.Recv(buf, source=ANY_SOURCE, tag=ANY_TAG)
                    got.add((status.source, int(buf[0])))
                assert got == {(0, 100), (1, 101)}
            else:
                comm.Send(np.array([100.0 + comm.rank]), dest=2, tag=comm.rank)

        spmd(3, fn)

    def test_truncation_raises(self):
        def fn(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(10), dest=1)
            else:
                with pytest.raises(TruncationError):
                    comm.Recv(np.zeros(3), source=0)

        spmd(2, fn)

    def test_invalid_dest_raises(self):
        def fn(comm):
            if comm.rank == 0:
                with pytest.raises(CommunicatorError):
                    comm.Send(np.zeros(1), dest=5)

        spmd(2, fn)

    def test_negative_user_tag_rejected(self):
        def fn(comm):
            if comm.rank == 0:
                with pytest.raises(CommunicatorError):
                    comm.Send(np.zeros(1), dest=1, tag=-3)

        spmd(2, fn)

    @pytest.mark.parametrize("mode", TRANSPORTS)
    @pytest.mark.parametrize("entry", sorted(SENDS))
    @pytest.mark.parametrize(
        "dest, tag", [(-1, 0), (2, 0), (1, -3)], ids=["dest=-1", "dest=size", "tag<0"]
    )
    def test_every_send_validates_dest_and_tag(self, entry, mode, dest, tag):
        """``dest=-1`` must not wrap to the last rank, ``dest>=size`` must
        not be a bare IndexError, and a negative user tag is rejected —
        identically on every entry point and transport."""

        def fn(comm):
            with pytest.raises(CommunicatorError):
                SENDS[entry](comm, dest, tag, mode)
            return comm.fabric.mailbox_depth()

        assert spmd(2, fn) == [0, 0]  # nothing was posted before the raise

    @pytest.mark.parametrize("entry", sorted(RECEIVES))
    @pytest.mark.parametrize("source", [2, -2], ids=["source=size", "source=-2"])
    def test_every_receive_validates_source(self, entry, source):
        """An out-of-range source raises at the boundary instead of an
        IndexError (``>= size``) or a full deadlock-timeout wait (``< 0``
        other than ANY_SOURCE)."""

        def fn(comm):
            with pytest.raises(CommunicatorError, match="source"):
                RECEIVES[entry](comm, source)
            return comm.fabric.mailbox_depth()

        assert spmd(2, fn, deadlock_timeout=5.0) == [0, 0]

    def test_datatype_send_recv(self):
        """Send a 2x2 corner of a 4x4 via subarray types on both ends."""

        def fn(comm):
            t_src = FLOAT.Create_subarray((4, 4), (2, 2), (0, 0))
            t_dst = FLOAT.Create_subarray((4, 4), (2, 2), (2, 2))
            if comm.rank == 0:
                grid = np.arange(16, dtype=np.float32)
                comm.Send(grid, dest=1, datatype=t_src)
            else:
                out = np.zeros(16, dtype=np.float32)
                comm.Recv(out, source=0, datatype=t_dst)
                assert out.reshape(4, 4)[2:, 2:].tolist() == [[0, 1], [4, 5]]

        spmd(2, fn)


class TestNonblocking:
    def test_isend_completes_immediately(self):
        def fn(comm):
            if comm.rank == 0:
                req = comm.Isend(np.array([3.0]), dest=1)
                assert req.test()
                req.wait()
            else:
                buf = np.zeros(1)
                comm.Recv(buf, source=0)
                assert buf[0] == 3.0

        spmd(2, fn)

    def test_irecv_wait(self):
        def fn(comm):
            if comm.rank == 0:
                comm.Send(np.array([5.0]), dest=1, tag=9)
            else:
                buf = np.zeros(1)
                req = comm.Irecv(buf, source=0, tag=9)
                status = req.wait()
                assert buf[0] == 5.0 and status.tag == 9

        spmd(2, fn)

    def test_irecv_test_then_wait(self):
        def fn(comm):
            if comm.rank == 0:
                comm.Send(np.array([8.0]), dest=1, tag=1)
                comm.Barrier()
            else:
                buf = np.zeros(1)
                req = comm.Irecv(buf, source=0, tag=1)
                comm.Barrier()  # guarantees the message has been posted
                assert req.test()
                req.wait()
                assert buf[0] == 8.0

        spmd(2, fn)

    def test_iprobe(self):
        def fn(comm):
            if comm.rank == 0:
                comm.Send(np.array([1.0]), dest=1, tag=4)
                comm.Barrier()
            else:
                comm.Barrier()
                assert comm.Iprobe(source=0, tag=4)
                assert not comm.Iprobe(source=0, tag=5)
                buf = np.zeros(1)
                comm.Recv(buf, source=0, tag=4)  # message still there
                assert buf[0] == 1.0

        spmd(2, fn)


class TestObjectApi:
    def test_send_recv_objects(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send({"cfg": [1, 2, 3]}, dest=1, tag=2)
            else:
                obj = comm.recv(source=0, tag=2)
                assert obj == {"cfg": [1, 2, 3]}

        spmd(2, fn)

    def test_objects_are_isolated(self):
        """Receiver mutations must not leak back into sender state."""

        def fn(comm):
            if comm.rank == 0:
                payload = {"xs": [1]}
                comm.send(payload, dest=1)
                comm.Barrier()
                assert payload == {"xs": [1]}
            else:
                got = comm.recv(source=0)
                got["xs"].append(99)
                comm.Barrier()

        spmd(2, fn)
