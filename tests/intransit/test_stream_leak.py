"""Streaming-path hygiene: abandoned-frame straggler purge + buffer reuse.

Regression tests for two leaks on the degraded streaming path:

* a slab whose receive timed out (``try_recv_frame`` -> ``None``) used to
  land in the mailbox later under its unique tag and sit there forever;
* every ``recv_frame``/``try_recv_frame`` call used to allocate fresh
  ``np.empty`` output slabs, so steady-state streaming allocated per frame.
"""

from __future__ import annotations

import time

import numpy as np

from repro.intransit import StreamReceiver, StreamSender, StreamTopology, frame_tag
from repro.utils.membudget import MEMORY_BUDGET, budget_scope
from tests.conftest import spmd, thread_only

GAVE_UP_TAG = 7
SENT_TAG = 8


class TestStragglerPurge:
    def test_straggler_slab_is_purged_not_leaked(self):
        """A slab arriving after its receive was abandoned gets drained."""
        topo = StreamTopology(m=1, n=1, nx=4, ny=4)

        def fn(comm):
            if comm.rank == 0:
                sender = StreamSender(comm, topo, 0)
                comm.recv(source=1, tag=GAVE_UP_TAG)  # receiver timed out
                sender.send_frame(0, np.full((4, 4), 5.0, dtype=np.float32))
                sender.send_frame(1, np.full((4, 4), 6.0, dtype=np.float32))
                comm.send("sent", 1, tag=SENT_TAG)
                return None
            receiver = StreamReceiver(comm, topo, 0)
            assert receiver.try_recv_frame(0, deadline_s=0.05) is None
            assert receiver.abandoned_count() == 1
            comm.send("gave up", 0, tag=GAVE_UP_TAG)
            comm.recv(source=0, tag=SENT_TAG)  # frame 0 is now in the mailbox
            my_world = comm.world_rank_of(comm.rank)
            leaked_before = comm.fabric.mailbox_depth(world_rank=my_world)
            slabs = receiver.recv_frame(1)  # purges the straggler on entry
            assert np.all(slabs[0] == 6.0)
            assert receiver.purged_slabs == 1
            assert receiver.abandoned_count() == 0
            leaked_after = comm.fabric.mailbox_depth(world_rank=my_world)
            return (leaked_before, leaked_after)

        results = spmd(2, fn)
        leaked_before, leaked_after = results[1]
        assert leaked_before >= 1  # the straggler really was queued
        assert leaked_after == 0  # ...and really was drained

    def test_purge_abandoned_direct_call(self):
        """purge_abandoned drains without needing another receive."""
        topo = StreamTopology(m=1, n=1, nx=4, ny=4)

        def fn(comm):
            if comm.rank == 0:
                sender = StreamSender(comm, topo, 0)
                comm.recv(source=1, tag=GAVE_UP_TAG)
                sender.send_frame(0, np.zeros((4, 4), dtype=np.float32))
                comm.send("sent", 1, tag=SENT_TAG)
                return None
            receiver = StreamReceiver(comm, topo, 0)
            assert receiver.try_recv_frame(0, deadline_s=0.05) is None
            comm.send("gave up", 0, tag=GAVE_UP_TAG)
            comm.recv(source=0, tag=SENT_TAG)
            assert receiver.purge_abandoned() == 1
            assert receiver.purge_abandoned() == 0  # idempotent once drained
            assert comm.fabric.mailbox_depth(
                world_rank=comm.world_rank_of(comm.rank)
            ) == 0
            return True

        assert spmd(2, fn)[1] is True

    def test_partial_frame_abandons_only_missing_sources(self):
        """With one sim rank on time and one late, only the late slab is
        abandoned; the on-time slab is delivered (and releases transport
        resources) at timeout."""
        topo = StreamTopology(m=2, n=1, nx=4, ny=4)

        def fn(comm):
            if comm.rank == 0:  # punctual producer
                StreamSender(comm, topo, 0).send_frame(
                    0, np.zeros(topo.sim_slab(0).np_shape(), dtype=np.float32)
                )
                return None
            if comm.rank == 1:  # late producer
                comm.recv(source=2, tag=GAVE_UP_TAG)
                StreamSender(comm, topo, 1).send_frame(
                    0, np.zeros(topo.sim_slab(1).np_shape(), dtype=np.float32)
                )
                comm.send("sent", 2, tag=SENT_TAG)
                return None
            receiver = StreamReceiver(comm, topo, 0)
            # Wait until rank 0's slab is queued, so exactly rank 1's is late.
            while not comm.Iprobe(source=0, tag=frame_tag(0)):
                time.sleep(0.001)
            assert receiver.try_recv_frame(0, deadline_s=0.05) is None
            assert receiver.abandoned_count() == 1
            comm.send("gave up", 1, tag=GAVE_UP_TAG)
            comm.recv(source=1, tag=SENT_TAG)
            assert receiver.purge_abandoned() == 1
            return True

        assert spmd(3, fn)[2] is True

    @thread_only
    def test_purged_straggler_releases_budget_charge(self):
        """A straggler's staged payload is charged to the DDR memory budget
        at send time; purging the abandoned frame must release the charge,
        so a long degraded run's resident staging stays bounded (the
        invariant the memory-chaos pipeline worker asserts)."""
        topo = StreamTopology(m=1, n=1, nx=4, ny=4)
        frame_bytes = 4 * 4 * np.dtype(np.float32).itemsize

        def fn(comm):
            if comm.rank == 0:
                sender = StreamSender(comm, topo, 0)
                comm.recv(source=1, tag=GAVE_UP_TAG)
                sender.send_frame(0, np.zeros((4, 4), dtype=np.float32))
                comm.send("sent", 1, tag=SENT_TAG)
                return None
            receiver = StreamReceiver(comm, topo, 0)
            assert receiver.try_recv_frame(0, deadline_s=0.05) is None
            comm.send("gave up", 0, tag=GAVE_UP_TAG)
            comm.recv(source=0, tag=SENT_TAG)
            sender_world = comm.world_rank_of(0)
            staged = MEMORY_BUDGET.used_bytes(sender_world)
            assert staged >= frame_bytes  # the straggler is charged
            assert receiver.purge_abandoned() == 1
            assert MEMORY_BUDGET.used_bytes(sender_world) == staged - frame_bytes
            return True

        with budget_scope(limit_mb=16):
            assert spmd(2, fn)[1] is True
        assert sum(MEMORY_BUDGET._used.values()) == 0


class TestBufferReuse:
    def test_steady_state_reuses_two_slab_sets(self):
        """Double buffering: frames k and k+2 land in the same arrays, and
        the set returned for frame k is not written by frame k+1's receive
        (callers keep references — the stale-frame policy)."""
        topo = StreamTopology(m=2, n=1, nx=8, ny=4)

        def fn(comm):
            if topo.is_sim(comm.rank):
                sender = StreamSender(comm, topo, comm.rank)
                for frame in range(4):
                    sender.send_frame(
                        frame,
                        np.full(sender.slab.np_shape(), frame, dtype=np.float32),
                    )
                return None
            receiver = StreamReceiver(comm, topo, 0)
            sets = [receiver.recv_frame(frame) for frame in range(4)]
            # Identity: two alternating sets, no per-frame allocation.
            for a, b in zip(sets[0], sets[2]):
                assert a is b
            for a, b in zip(sets[1], sets[3]):
                assert a is b
            for a, b in zip(sets[0], sets[1]):
                assert a is not b
            # Contract: frame 2's values live where frame 0's were, and
            # frame 3 never touched them.
            for slab in sets[2]:
                assert np.all(slab == 2.0)
            for slab in sets[3]:
                assert np.all(slab == 3.0)
            return True

        assert spmd(3, fn)[2] is True

    def test_timed_out_receive_does_not_corrupt_returned_slabs(self):
        """A timeout writes only into the back set: the last *returned*
        slabs (what the pipeline re-exchanges under frame_drop="stale")
        keep their values even while a partial frame lands."""
        topo = StreamTopology(m=1, n=1, nx=4, ny=4)

        def fn(comm):
            if comm.rank == 0:
                sender = StreamSender(comm, topo, 0)
                sender.send_frame(0, np.full((4, 4), 1.0, dtype=np.float32))
                comm.recv(source=1, tag=GAVE_UP_TAG)
                sender.send_frame(1, np.full((4, 4), 2.0, dtype=np.float32))
                comm.send("sent", 1, tag=SENT_TAG)
                return None
            receiver = StreamReceiver(comm, topo, 0)
            good = receiver.recv_frame(0)
            assert np.all(good[0] == 1.0)
            # Frame 1 times out; whatever partially lands must not touch
            # the frame-0 set the caller still references.
            assert receiver.try_recv_frame(1, deadline_s=0.05) is None
            assert np.all(good[0] == 1.0)
            comm.send("gave up", 0, tag=GAVE_UP_TAG)
            comm.recv(source=0, tag=SENT_TAG)
            # The straggler for frame 1 is purged, not delivered into good.
            receiver.purge_abandoned()
            assert np.all(good[0] == 1.0)
            return True

        assert spmd(2, fn)[1] is True
