"""M-to-N mapping and streaming endpoint tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Box, check_send_coverage
from repro.intransit import (
    StreamReceiver,
    StreamSender,
    StreamTopology,
    analysis_rank_for,
    sim_to_analysis_map,
)
from tests.conftest import spmd


class TestMapping:
    def test_paper_figure4_example(self):
        """10 sim ranks to 4 analysis ranks: 3, 3, 2, 2."""
        mapping = sim_to_analysis_map(10, 4)
        assert [len(m) for m in mapping] == [3, 3, 2, 2]
        assert mapping[0] == [0, 1, 2]
        assert mapping[3] == [8, 9]

    def test_paper_production_run(self):
        """128 sim ranks to 32 analysis ranks: uniform 4 each."""
        mapping = sim_to_analysis_map(128, 32)
        assert all(len(m) == 4 for m in mapping)

    def test_every_sim_rank_mapped_once(self):
        for m, n in [(10, 4), (7, 3), (5, 5), (12, 1)]:
            mapping = sim_to_analysis_map(m, n)
            flat = [s for group in mapping for s in group]
            assert flat == list(range(m))

    def test_analysis_rank_for_consistent(self):
        mapping = sim_to_analysis_map(10, 4)
        for a, group in enumerate(mapping):
            for s in group:
                assert analysis_rank_for(s, 10, 4) == a

    def test_validation(self):
        with pytest.raises(ValueError):
            sim_to_analysis_map(4, 10)
        with pytest.raises(ValueError):
            sim_to_analysis_map(0, 1)


class TestTopology:
    TOPO = StreamTopology(m=5, n=2, nx=20, ny=10)

    def test_roles(self):
        assert self.TOPO.world_size() == 7
        assert self.TOPO.is_sim(4)
        assert not self.TOPO.is_sim(5)

    def test_sim_slabs_tile_domain(self):
        slabs = [self.TOPO.sim_slab(s) for s in range(5)]
        assert check_send_coverage([[s] for s in slabs]) == Box((0, 0), (20, 10))

    def test_incoming_slabs(self):
        incoming = self.TOPO.incoming_slabs(0)
        assert [s for s, _ in incoming] == [0, 1, 2]
        incoming = self.TOPO.incoming_slabs(1)
        assert [s for s, _ in incoming] == [3, 4]

    def test_owned_chunks_complete_across_analysis(self):
        owns = [
            [slab for _, slab in self.TOPO.incoming_slabs(a)] for a in range(2)
        ]
        assert check_send_coverage(owns) == Box((0, 0), (20, 10))


class TestEndpoints:
    def test_frame_transfer(self):
        topo = StreamTopology(m=3, n=2, nx=8, ny=6)

        def fn(comm):
            if topo.is_sim(comm.rank):
                sender = StreamSender(comm, topo, comm.rank)
                for frame in range(3):
                    field = np.full(
                        sender.slab.np_shape(), 100 * comm.rank + frame, dtype=np.float32
                    )
                    sender.send_frame(frame, field)
                return None
            receiver = StreamReceiver(comm, topo, comm.rank - topo.m)
            seen = []
            for frame in range(3):
                slabs = receiver.recv_frame(frame)
                for (sim_rank, box), data in zip(receiver.sources, slabs):
                    assert data.shape == box.np_shape()
                    assert np.all(data == 100 * sim_rank + frame)
                    seen.append((frame, sim_rank))
            return seen

        results = spmd(5, fn)
        analysis_seen = [r for r in results if r is not None]
        assert len(analysis_seen) == 2

    def test_sender_shape_validated(self):
        topo = StreamTopology(m=2, n=1, nx=8, ny=6)

        def fn(comm):
            if comm.rank == 0:
                sender = StreamSender(comm, topo, 0)
                with pytest.raises(ValueError, match="shape"):
                    sender.send_frame(0, np.zeros((1, 1), dtype=np.float32))

        spmd(3, fn)

    def test_out_of_order_frames_match_by_tag(self):
        """The receiver can consume frame 1 before frame 0 (tags isolate)."""
        topo = StreamTopology(m=1, n=1, nx=4, ny=4)

        def fn(comm):
            if comm.rank == 0:
                sender = StreamSender(comm, topo, 0)
                for frame in range(2):
                    sender.send_frame(frame, np.full((4, 4), frame, dtype=np.float32))
            else:
                receiver = StreamReceiver(comm, topo, 0)
                later = receiver.recv_frame(1)
                earlier = receiver.recv_frame(0)
                assert np.all(later[0] == 1.0)
                assert np.all(earlier[0] == 0.0)

        spmd(2, fn)
