"""Zero-copy vs packed transport: selection, equivalence, error paths."""

from __future__ import annotations

import collections
import os
import threading
import time

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, fault_plan
from repro.mpisim import (
    FLOAT,
    INT,
    CommunicatorError,
    DatatypeError,
    RevokedError,
    StructType,
    SubarrayType,
    TRANSPORT_PACKED,
    TRANSPORT_SHM,
    TRANSPORT_ZEROCOPY,
    TruncationError,
)
from repro.utils.membudget import MEMORY_BUDGET, budget_scope
from tests.conftest import counted_region, spmd, thread_only
from tests.mpisim.test_shm import in_flight

TRANSPORTS = [TRANSPORT_ZEROCOPY, TRANSPORT_PACKED]


class TestSelection:
    @thread_only
    def test_default_is_zerocopy_unless_env_overrides(self):
        # CI runs this suite under DDR_TRANSPORT=packed and =shm as well.
        default = os.environ.get("DDR_TRANSPORT", TRANSPORT_ZEROCOPY)
        assert all(spmd(2, lambda comm: comm.resolve_transport() == default))

    @thread_only
    def test_per_call_transport(self):
        def fn(comm):
            assert comm.resolve_transport(TRANSPORT_PACKED) == TRANSPORT_PACKED
            assert comm.resolve_transport(TRANSPORT_ZEROCOPY) == TRANSPORT_ZEROCOPY
            for bogus in ("bogus", "carrier-pigeon"):
                with pytest.raises(CommunicatorError):
                    comm.resolve_transport(bogus)
            return True

        assert all(spmd(2, fn))


def _transpose(comm, mode):
    """Row->column redistribution; returns the received matrix."""
    size, rank = comm.size, comm.rank
    g = np.arange(size * size, dtype=np.float32).reshape(size, size) + 100 * rank
    recv = np.full((size, size), -1, dtype=np.float32)
    stypes = [
        SubarrayType(FLOAT, (size, size), (size, 1), (0, d)) for d in range(size)
    ]
    rtypes = [
        SubarrayType(FLOAT, (size, size), (size, 1), (0, s)) for s in range(size)
    ]
    comm.Alltoallw(g, stypes, recv, rtypes, transport=mode)
    return recv


class TestEquivalence:
    @pytest.mark.parametrize("size", [1, 2, 3, 5])
    def test_alltoallw_bit_identical(self, size):
        def fn(comm):
            a = _transpose(comm, TRANSPORT_ZEROCOPY)
            b = _transpose(comm, TRANSPORT_PACKED)
            assert np.array_equal(a, b)
            # column s of the result is column rank of source s's matrix
            for s in range(comm.size):
                expect = np.arange(size * size, dtype=np.float32).reshape(size, size)
                assert np.array_equal(a[:, s], expect[:, comm.rank] + 100 * s)
            return True

        assert all(spmd(size, fn))

    def test_mixed_transports_interoperate(self):
        """Receive is handle-aware regardless of mode, so ranks may disagree."""

        def fn(comm):
            mode = TRANSPORTS[comm.rank % 2]
            return _transpose(comm, mode)

        results = spmd(4, fn)
        reference = spmd(4, lambda comm: _transpose(comm, TRANSPORT_PACKED))
        for got, expect in zip(results, reference):
            assert np.array_equal(got, expect)

    @thread_only
    def test_counter_profiles(self):
        """Zero-copy: one direct copy per lane, no staging allocations."""

        def fn(comm):
            _, zc = counted_region(comm, lambda: _transpose(comm, TRANSPORT_ZEROCOPY))
            _, pk = counted_region(comm, lambda: _transpose(comm, TRANSPORT_PACKED))
            return zc, pk

        zc, pk = spmd(4, fn)[0]
        assert zc["copies"]["pack"] == 0 and zc["copies"]["unpack"] == 0
        assert zc["copies"]["direct"] == 16  # 4 ranks x 4 lanes
        assert zc["allocations"] == 0
        assert pk["copies"]["direct"] == 0
        assert pk["copies"]["pack"] == 16 and pk["copies"]["unpack"] == 16
        assert pk["allocations"] == 16


class TestRendezvousP2P:
    @pytest.mark.parametrize("mode", TRANSPORTS)
    def test_sendrecv_ring(self, mode):
        """Every rank posts a rendezvous send to its right, receives from its
        left, then waits: both ends progress before blocking, so the ring
        cannot deadlock on any transport."""

        def fn(comm):
            size, rank = comm.size, comm.rank
            send = np.full(8, rank, dtype=np.int32)
            recv = np.zeros(8, dtype=np.int32)
            req = comm.Isend(send, (rank + 1) % size, tag=7, rendezvous=True, transport=mode)
            comm.Recv(recv, (rank - 1) % size, tag=7)
            req.wait()
            assert recv.tolist() == [(rank - 1) % size] * 8
            return True

        assert all(spmd(4, fn))

    @thread_only
    def test_isend_rendezvous_blocks_until_drained(self):
        def fn(comm):
            if comm.rank == 0:
                send = np.arange(16, dtype=np.float64)
                # the other transports stage eagerly
                req = comm.Isend(send, 1, tag=5, rendezvous=True, transport=TRANSPORT_ZEROCOPY)
                assert not req.test()  # receiver has not copied yet
                comm.Barrier()
                req.wait()
            else:
                comm.Barrier()  # hold the send un-drained across the barrier
                recv = np.zeros(16)
                comm.Recv(recv, 0, tag=5)
                assert recv.tolist() == list(range(16))
            return True

        assert all(spmd(2, fn))

    def test_handle_completion_is_idempotent_and_reusable(self):
        """The rendezvous handle's lock-based completion: pending until
        completed, completing twice is harmless, and a finished wait leaves
        it complete for the next ``Test``/``Wait``."""
        from repro.mpisim.transport import _ZeroCopyHandle

        handle = _ZeroCopyHandle(np.zeros(4), None, dest_world=1)
        assert not handle.completed()
        assert handle.wait(0.01) is False  # still pending: times out
        assert not handle.completed()
        handle.complete()
        handle.complete()
        assert handle.completed()
        assert handle.wait(0.01) is True
        assert handle.completed() and handle.wait(0.0) is True

    def test_isend_rendezvous_strided_falls_back_eager(self):
        """A non-contiguous buffer cannot be posted by reference."""

        def fn(comm):
            if comm.rank == 0:
                strided = np.arange(8, dtype=np.int32)[::2]
                req = comm.Isend(strided, 1, tag=2, rendezvous=True)
                req.wait()
            else:
                recv = np.zeros(4, dtype=np.int32)
                comm.Recv(recv, 0, tag=2)
                assert recv.tolist() == [0, 2, 4, 6]
            return True

        assert all(spmd(2, fn))


@pytest.mark.parametrize("mode", TRANSPORTS)
class TestAlltoallwErrorPaths:
    def test_self_type_mismatch(self, mode):
        def fn(comm):
            size = comm.size
            stypes: list = [None] * size
            rtypes: list = [None] * size
            stypes[comm.rank] = FLOAT.Create_contiguous(4)
            rtypes[comm.rank] = FLOAT.Create_contiguous(3)
            with pytest.raises(CommunicatorError, match="self send/recv"):
                comm.Alltoallw(
                    np.zeros(4, dtype=np.float32), stypes,
                    np.zeros(4, dtype=np.float32), rtypes,
                    transport=mode,
                )
            return True

        assert all(spmd(2, fn))

    def test_missing_buffer_is_typed_and_posts_nothing(self, mode):
        """Types that select data with no buffer to select it from: a typed
        error on every rank, raised before the self copy and before any
        lane is posted (it used to be a bare ``assert``)."""

        def fn(comm):
            lane = FLOAT.Create_contiguous(2)
            types = [lane] * comm.size
            out = np.full(2, -1, dtype=np.float32)
            with pytest.raises(CommunicatorError, match="sendbuf is None"):
                comm.Alltoallw(None, types, out, types, transport=mode)
            with pytest.raises(CommunicatorError, match="recvbuf is None"):
                comm.Alltoallw(out, types, None, types, transport=mode)
            comm.Barrier()
            assert (out == -1).all()
            return comm.fabric.mailbox_depth(world_rank=comm.world_rank_of(comm.rank))

        assert spmd(3, fn) == [0, 0, 0]

    def test_all_none_rows(self, mode):
        def fn(comm):
            none_row: list = [None] * comm.size
            comm.Alltoallw(None, none_row, None, none_row, transport=mode)
            return True

        assert all(spmd(3, fn))

    def test_zero_size_lanes(self, mode):
        """Zero-element types move nothing and need no buffer on that lane."""

        def fn(comm):
            size, rank = comm.size, comm.rank
            empty = SubarrayType(INT, (4, 4), (0, 4), (0, 0))
            stypes: list = [empty] * size
            rtypes: list = [empty] * size
            if rank == 0:
                stypes[1] = SubarrayType(INT, (4, 4), (1, 4), (2, 0))
            if rank == 1:
                rtypes[0] = SubarrayType(INT, (4, 4), (1, 4), (0, 0))
            send = np.arange(16, dtype=np.int32)
            recv = np.full(16, -1, dtype=np.int32)
            comm.Alltoallw(send, stypes, recv, rtypes, transport=mode)
            if rank == 1:
                assert recv[:4].tolist() == [8, 9, 10, 11]
                assert (recv[4:] == -1).all()
            return True

        assert all(spmd(3, fn))


def test_a_receive_error_still_matches_every_later_lane():
    """Every lane is copied as soon as it is matched.  Rank 0's receive type
    for lane 1->0 is one element short: its copy fails first, and rank 0 must
    still match rank 2's lane and discard it, or rank 2 waits in its
    rendezvous for the whole deadlock timeout and rank 0's mailbox keeps its
    message."""

    def fn(comm):
        size, rank = comm.size, comm.rank
        send = np.arange(4 * size, dtype=np.float32) + 100 * rank
        recv = np.full(4 * size, -1, dtype=np.float32)
        stypes = [SubarrayType(FLOAT, (4 * size,), (4,), (4 * rank,)) for _ in range(size)]
        rtypes = [SubarrayType(FLOAT, (4 * size,), (4,), (4 * peer,)) for peer in range(size)]
        began = time.monotonic()
        if rank == 0:
            rtypes[1] = SubarrayType(FLOAT, (4 * size,), (3,), (4,))
            with pytest.raises(TruncationError, match="lane 1->0"):
                comm.Alltoallw(send, stypes, recv, rtypes, transport=TRANSPORT_ZEROCOPY)
            assert (recv[8:] == -1).all()  # rank 2's lane: matched, discarded, never copied
        else:
            comm.Alltoallw(send, stypes, recv, rtypes, transport=TRANSPORT_ZEROCOPY)
            assert np.array_equal(recv[:4], np.arange(4, dtype=np.float32))
        took = time.monotonic() - began
        comm.Barrier()
        return took < 2.0, comm.fabric.mailbox_depth(world_rank=comm.world_rank_of(rank))

    assert spmd(3, fn, deadlock_timeout=3.0) == [(True, 0)] * 3


# ---------------------------------------------------------------------------
# Struct lanes: several buffers' selections in one message
# ---------------------------------------------------------------------------


def _struct_case(rank):
    """Two source buffers -> one (2, 6) destination, as struct types."""
    rows = [np.arange(6, dtype=np.float32) + 10 * rank, np.arange(6, dtype=np.float32) - rank]
    send = StructType([(0, FLOAT.Create_contiguous(6)), (1, FLOAT.Create_contiguous(6))], 2)
    recv = StructType(
        [(0, SubarrayType(FLOAT, (2, 6), (1, 6), (row, 0))) for row in range(2)], 1
    )
    return rows, send, recv


def _one_call_case(rank):
    """:func:`_struct_case`'s rows as views of one array, sent as subarrays
    and received as one stepped subarray: a copy program of one NumPy call."""
    rows = list(np.stack(_struct_case(rank)[0])[:, None])
    row = SubarrayType(FLOAT, (1, 6), (1, 6), (0, 0))
    send = StructType([(0, row), (1, row)], 2)
    recv = StructType([(0, SubarrayType(FLOAT, (2, 6), (1, 6), (0, 0), steps=(2, 0, 1)))], 1)
    return rows, send, recv


def test_a_first_local_copy_builds_the_program_that_fills_it():
    """A struct's copy that runs no program yet builds it on the first copy,
    and the program picks the fill: rows of one array fill in one
    ``np.copyto`` of a strided view, separate rows from a block list (one
    ``np.concatenate``).  Both copy the rows bitwise."""
    from repro.mpisim.transport import copy_local

    row = SubarrayType(FLOAT, (1, 6), (1, 6), (0, 0))
    recv = SubarrayType(FLOAT, (2, 6), (1, 6), (0, 0), steps=(2, 0, 1))
    one = np.arange(12, dtype=np.float32).reshape(2, 1, 6)
    for rows, fill in (([one[0], one[1]], np.ndarray), ([one[0].copy(), one[1].copy()], list)):
        send = StructType([(0, row), (1, row)], 2)  # no program yet
        out = np.zeros((2, 6), np.float32)
        copy_local(rows, send, out, recv, TRANSPORT_ZEROCOPY)
        ((_, _, _, source),) = send._programs[recv].fills
        assert type(source) is fill
        assert np.array_equal(out, one.reshape(2, 6))


@pytest.mark.parametrize("mode", [TRANSPORT_ZEROCOPY, TRANSPORT_PACKED, TRANSPORT_SHM])
class TestStructLanes:
    def test_point_to_point_and_object_drain(self, mode):
        def fn(comm):
            rows, send, recv = _struct_case(comm.rank)
            peer = 1 - comm.rank
            expect = np.stack(_struct_case(peer)[0])
            # typed receive: member k of the sender into member k of ours
            out = np.zeros((2, 6), dtype=np.float32)
            request = comm.Irecv((out,), peer, tag=5, datatype=recv)
            pending = comm.Isend(
                rows, peer, tag=5, datatype=send, rendezvous=True, transport=mode
            )
            assert request.wait().count_bytes == 48 and np.array_equal(out, expect)
            pending.wait()
            # untyped and object receives see the packed stream
            flat = np.zeros(12, dtype=np.float32)
            pending = comm.Isend(
                rows, peer, tag=6, datatype=send, rendezvous=True, transport=mode
            )
            comm.Recv(flat, peer, tag=6)
            pending.wait()
            assert np.array_equal(flat, expect.reshape(-1))
            comm.Send(rows, peer, tag=7, datatype=send, transport=mode)
            assert np.array_equal(comm.recv(peer, tag=7), expect.reshape(-1))
            # a receive type of another size is the receiver's typed error
            short = StructType([(0, FLOAT.Create_contiguous(6))], 1)
            comm.Send(rows, peer, tag=8, datatype=send, transport=mode)
            with pytest.raises(TruncationError):
                comm.Recv((np.zeros(6, np.float32),), peer, tag=8, datatype=short)
            return True

        assert all(spmd(2, fn))

    def test_alltoallw_with_self_lane(self, mode):
        def fn(comm):
            rows, send, recv = _struct_case(comm.rank)
            outs = [np.zeros((2, 6), dtype=np.float32) for _ in range(comm.size)]
            # every peer's data lands in its own destination buffer
            rtypes = [
                StructType([(p, m) for _, m in recv.members], comm.size)
                for p in range(comm.size)
            ]
            comm.Alltoallw(rows, [send] * comm.size, outs, rtypes, transport=mode)
            for peer, out in enumerate(outs):
                assert np.array_equal(out, np.stack(_struct_case(peer)[0]))
            return True

        assert all(spmd(3, fn))

    @pytest.mark.parametrize("case", [_struct_case, _one_call_case], ids=["separate", "one-array"])
    def test_receiver_error_releases_every_matched_sender(self, mode, case):
        # Lanes are copied as they arrive: when a copy fails, the other lanes
        # are still matched, and their senders must not be left waiting.
        def fn(comm):
            rows, send, recv = case(comm.rank)
            outs = [np.zeros((2, 6), dtype=np.float32) for _ in range(comm.size)]
            rtypes = [
                StructType([(p, m) for _, m in recv.members], comm.size)
                for p in range(comm.size)
            ]
            if comm.rank == 0:
                rtypes[1] = StructType([(1, FLOAT.Create_contiguous(6))], comm.size)
                with pytest.raises(TruncationError, match="lane 1->0"):
                    comm.Alltoallw(rows, [send] * comm.size, outs, rtypes, transport=mode)
                assert not outs[2].any()  # matched, discarded, never copied
            else:
                comm.Alltoallw(rows, [send] * comm.size, outs, rtypes, transport=mode)
                assert np.array_equal(outs[0], np.stack(_struct_case(0)[0]))
            comm.Barrier()
            return comm.fabric.mailbox_depth(world_rank=comm.world_rank_of(comm.rank))

        assert spmd(3, fn) == [0, 0, 0]

    def test_sender_validates_every_member_before_posting(self, mode):
        def fn(comm):
            rows, send, _ = _struct_case(comm.rank)
            if comm.rank == 0:
                with pytest.raises(DatatypeError, match="sequence of 2 buffers"):
                    comm.Isend(rows[:1], 1, tag=9, datatype=send, rendezvous=True, transport=mode)
                with pytest.raises(DatatypeError, match="dtype"):
                    comm.Isend(
                        [rows[0], rows[1].astype(np.float64)], 1, tag=9,
                        datatype=send, rendezvous=True, transport=mode,
                    )
            comm.Barrier()
            return comm.fabric.mailbox_depth(world_rank=comm.world_rank_of(comm.rank))

        assert spmd(2, fn) == [0, 0]


# ---------------------------------------------------------------------------
# Copy programs: a warm struct copy checks its buffers as a cold one does
# ---------------------------------------------------------------------------


def _chunk_case(rank, lanes=1):
    """Two (1, 6) chunks, sent as a struct of subarrays, land as a stepped
    subarray in rows ``2 p``, ``2 p + 1`` of a ``(2 * lanes, 6)`` destination
    (one ``recvs[p]`` per sending rank ``p``): the two ends of a merged lane."""
    chunks = [np.arange(6, dtype=np.float32).reshape(1, 6) + 10 * rank + k for k in range(2)]
    member = SubarrayType(FLOAT, (1, 6), (1, 6), (0, 0))
    recvs = [
        SubarrayType(FLOAT, (2 * lanes, 6), (1, 6), (2 * p, 0), steps=(2, 0, 1))
        for p in range(lanes)
    ]
    return chunks, StructType([(0, member), (1, member)], 2), recvs


def _message(call, *args, **kwargs) -> str:
    with pytest.raises(DatatypeError) as caught:
        call(*args, **kwargs)
    return str(caught.value)


def test_self_lane_checks_survive_a_warm_program():
    """``copy_local`` replays a struct's program only after checking its
    sources, and every replay checks the destination: a dtype reassigned in
    place fails as it would on a cold copy, and the program serves again once
    it is put back."""
    from repro.mpisim.transport import copy_local

    chunks, send, (recv,) = _chunk_case(0)
    out = np.zeros((2, 6), np.float32)
    for _ in range(2):
        copy_local(chunks, send, out, recv, TRANSPORT_ZEROCOPY)
    for buffer in (chunks[1], out):
        buffer.dtype = np.int32
        _, cold_send, (cold_recv,) = _chunk_case(0)
        warm = _message(copy_local, chunks, send, out, recv, TRANSPORT_ZEROCOPY)
        assert warm == _message(
            copy_local, chunks, cold_send, out, cold_recv, TRANSPORT_ZEROCOPY
        )
        assert "dtype int32" in warm
        buffer.dtype = np.float32
    out[:] = -1
    copy_local(chunks, send, out, recv, TRANSPORT_ZEROCOPY)
    assert np.array_equal(out, np.concatenate(chunks))


@thread_only
def test_rendezvous_checks_survive_a_warm_program():
    """After warm rendezvous copies, a dtype reassigned in place is the same
    ``DatatypeError`` as on a cold run: from the sender's ``Isend`` and
    ``Alltoallw`` (checked as posted; the receiver's replay trusts them) and
    from the receiver's destination (checked on every replay)."""

    def fn(comm):
        peer = 1 - comm.rank
        chunks, send, recvs = _chunk_case(comm.rank, comm.size)
        out = np.zeros((4, 6), np.float32)

        def alltoallw(send, recvs):
            comm.Alltoallw(chunks, [send] * 2, out, recvs, transport=TRANSPORT_ZEROCOPY)

        def isend(send, recvs):
            if comm.rank == 0:
                comm.Isend(
                    chunks, 1, tag=3, datatype=send, rendezvous=True,
                    transport=TRANSPORT_ZEROCOPY,
                ).wait()
            else:
                comm.Recv(out, 0, tag=3, datatype=recvs[0])

        for _ in range(2):
            alltoallw(send, recvs)
            isend(send, recvs)
        assert np.array_equal(out[2 * peer:2 * peer + 2], np.concatenate(_chunk_case(peer)[0]))
        _, cold_send, cold_recvs = _chunk_case(comm.rank, comm.size)
        messages = []
        chunks[1].dtype = np.int32  # both senders fail before posting a lane
        for call in [alltoallw, isend] if comm.rank == 0 else [alltoallw]:
            messages.append([
                _message(call, *types) for types in ((send, recvs), (cold_send, cold_recvs))
            ])
        chunks[1].dtype = np.float32
        comm.Barrier()
        if comm.rank == 1:
            out.dtype = np.int32  # a receiver's destination
            messages.append([
                _message(comm.Recv, out, 0, tag=3, datatype=types[0])
                for types in (recvs, cold_recvs)
            ])
        else:
            for types in (send, cold_send):
                comm.Isend(
                    chunks, 1, tag=3, datatype=types, rendezvous=True,
                    transport=TRANSPORT_ZEROCOPY,
                ).wait()
        for warm, cold in messages:
            assert warm == cold and "dtype int32" in warm
        comm.Barrier()
        return len(messages), comm.fabric.mailbox_depth(world_rank=comm.world_rank_of(comm.rank))

    assert spmd(2, fn) == [(2, 0), (2, 0)]


@thread_only
def test_a_warm_alltoallw_checks_each_send_buffer_once(monkeypatch):
    """However many lanes send out of one buffer sequence, an ``Alltoallw``
    call checks each (buffer, grid) pair of its structs once, before its
    first lane is posted, and each lane's destination once (the replay):
    two chunks plus three lanes make five grid checks a rank."""
    checks = collections.Counter()
    grid = SubarrayType._grid

    def counting(self, buffer):
        checks[threading.get_ident()] += 1
        return grid(self, buffer)

    def fn(comm):
        chunks, send, recvs = _chunk_case(comm.rank, comm.size)
        out = np.zeros((2 * comm.size, 6), np.float32)

        def alltoallw():
            comm.Alltoallw(chunks, [send] * comm.size, out, recvs, transport=TRANSPORT_ZEROCOPY)

        alltoallw()  # builds the copy programs
        comm.Barrier()
        if comm.rank == 0:
            monkeypatch.setattr(SubarrayType, "_grid", counting)
        comm.Barrier()
        alltoallw()
        comm.Barrier()
        expect = [np.concatenate(_chunk_case(p)[0]) for p in range(comm.size)]
        assert np.array_equal(out, np.concatenate(expect))
        return threading.get_ident()

    assert [checks[ident] for ident in spmd(3, fn)] == [2 + 3] * 3


@thread_only
@pytest.mark.parametrize("backend", ["alltoallw", "p2p"])
def test_a_warm_exchange_checks_each_send_buffer_once_under_both_protocols(
    monkeypatch, backend
):
    """A merged round of two planes a rank, four ranks: both protocols check
    each (chunk, grid) pair once before the first lane is posted and each
    lane's destination once (the replay): two chunks plus four lanes, the
    self lane included, make six grid checks a rank.  A ``p2p`` round used
    to check the chunks again in ``copy_local`` and in every ``Isend``: 12."""
    from repro.core import Box, Redistributor

    checks = collections.Counter()
    grid = SubarrayType._grid

    def counting(self, buffer):
        checks[threading.get_ident()] += 1
        return grid(self, buffer)

    def fn(comm):
        own = [Box((0, 0, z), (4, 4, 1)) for z in (comm.rank, comm.rank + 4)]
        need = Box((2 * (comm.rank % 2), 2 * (comm.rank // 2), 0), (2, 2, 8))
        red = Redistributor(comm, ndims=3, dtype=np.float32, backend=backend,
                            transport=TRANSPORT_ZEROCOPY)
        red.setup(own=own, need=need)
        planes = list(np.stack([np.full((1, 4, 4), box.offset[2], np.float32) for box in own]))
        out = np.empty(need.np_shape(), np.float32)
        red.exchange(planes, out)  # builds the copy programs
        comm.Barrier()
        if comm.rank == 0:
            monkeypatch.setattr(SubarrayType, "_grid", counting)
        comm.Barrier()
        red.exchange(planes, out)
        comm.Barrier()
        assert (out == np.arange(8, dtype=np.float32)[:, None, None]).all()
        return threading.get_ident()

    assert [checks[ident] for ident in spmd(4, fn)] == [2 + 4] * 4


# ---------------------------------------------------------------------------
# The drain contract: stage -> (deliver | materialize | discard)
# ---------------------------------------------------------------------------

DRAIN_TAG = 41
DRAIN_COUNT = 256  # float32 -> 1 KiB, above the shm staging threshold
DRAIN_BYTES = DRAIN_COUNT * 4


def _drain_deliver(comm, data):
    buf = np.zeros(DRAIN_COUNT, dtype=np.float32)
    status = comm.Recv(buf, 0, DRAIN_TAG)
    assert np.array_equal(buf, data) and status.count_bytes == DRAIN_BYTES


def _drain_truncation(comm, data):
    with pytest.raises(TruncationError):
        comm.Recv(np.zeros(DRAIN_COUNT // 2, dtype=np.float32), 0, DRAIN_TAG)


def _drain_object_recv(comm, data):
    got = comm.recv(0, DRAIN_TAG)
    assert isinstance(got, np.ndarray) and np.array_equal(got, data)


def _drain_purge(comm, data):
    while not comm.Iprobe(0, DRAIN_TAG):
        pass
    assert comm.purge(0, DRAIN_TAG) == 1


def _drain_dropped(comm, data):
    comm.Barrier()  # the sender's post (dropped by the plan) is behind us
    assert not comm.Iprobe(0, DRAIN_TAG)


DRAINS = {
    "deliver": _drain_deliver,
    "truncation": _drain_truncation,
    "object-recv": _drain_object_recv,
    "purge": _drain_purge,
    "fault-drop": _drain_dropped,
    "alltoallw-count-mismatch": None,  # collective on both sides, see below
    "post-refused": None,  # the staged payload never reaches a mailbox
}


@thread_only  # one shared ledger / fault layer / fabric to inspect
@pytest.mark.parametrize("outcome", sorted(DRAINS))
@pytest.mark.parametrize(
    "mode", [TRANSPORT_PACKED, TRANSPORT_ZEROCOPY, TRANSPORT_SHM]
)
def test_drain_contract(mode, outcome):
    """However a staged payload ends — delivered, truncated at the receiver,
    drained by the object API, purged, dropped by the fault plan, rejected
    for its count, or refused at post time (revoked communicator) — the
    sender returns, its shm segment is back in the pool, and its budget
    charge is back in the ledger."""

    def fn(comm):
        data = np.arange(DRAIN_COUNT, dtype=np.float32)
        if outcome == "alltoallw-count-mismatch":
            stypes: list = [None, None]
            rtypes: list = [None, None]
            if comm.rank == 0:
                stypes[1] = FLOAT.Create_contiguous(DRAIN_COUNT)
                comm.Alltoallw(data, stypes, None, rtypes, transport=mode)  # must return
            else:
                rtypes[0] = FLOAT.Create_contiguous(DRAIN_COUNT + 1)
                with pytest.raises(TruncationError, match="lane 0->1"):
                    comm.Alltoallw(
                        None, stypes, np.zeros(DRAIN_COUNT + 1, np.float32), rtypes,
                        transport=mode,
                    )
        elif outcome == "post-refused":
            dup = comm.Split(0, key=comm.rank)
            if comm.rank == 0:
                dup.revoke()
                with pytest.raises(RevokedError):
                    dup.Isend(data, 1, DRAIN_TAG, rendezvous=True, transport=mode)
        elif comm.rank == 0:
            # Rendezvous where the transport allows it: Wait() returning is
            # the "sender not blocked" half of the contract.
            comm.Isend(data, 1, DRAIN_TAG, rendezvous=True, transport=mode).wait()
            if outcome == "fault-drop":
                comm.Barrier()
        else:
            DRAINS[outcome](comm, data)
        comm.Barrier()
        return (
            in_flight(comm.fabric.shm_pool()),
            MEMORY_BUDGET.used_bytes(comm.rank),
            MEMORY_BUDGET.peak_bytes(comm.rank),
        ), comm.fabric

    plan = FaultPlan(
        seed=0, nranks=2,
        events=(FaultSpec(kind="drop", rank=0, tag=DRAIN_TAG),)
        if outcome == "fault-drop" else (),
    )
    with budget_scope(limit_bytes=1 << 20), fault_plan(plan):
        (sender, fabric), (receiver, _) = spmd(2, fn, deadlock_timeout=10.0)
    staged = 0 if mode == TRANSPORT_ZEROCOPY else DRAIN_BYTES
    assert sender == (0, 0, staged)  # charged iff a copy was staged
    assert receiver == (0, 0, 0)
    assert fabric.mailbox_depth() == 0
