"""Runtime instrumentation: spans from the executor, transports and pipeline.

The acceptance bar: every exchange round is visible in the trace, including
which wire protocol ran it, under three backends and both transports.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core import Box, Redistributor
from repro.core.engine import executed_rounds
from repro.intransit import PipelineConfig, run_pipeline
from repro.lbm import LbmConfig
from repro.mpisim import TRANSPORT_PACKED, TRANSPORT_ZEROCOPY, transport
from repro.obs import tracing
from repro.volren.decompose import grid_boxes
from tests.conftest import spmd, thread_only

NPROCS = 4


def dense_layout(nprocs, rank):
    """Dense: rank owns cell ``rank``, needs the whole domain."""
    return [Box((rank,), (1,))], Box((0,), (nprocs,))


def run_exchange(backend):
    """One dense 1-D exchange on NPROCS ranks; returns the per-round protocols."""

    def fn(comm):
        red = Redistributor(comm, ndims=1, dtype=np.float32, backend=backend)
        own, need = dense_layout(comm.size, comm.rank)
        red.setup(own=own, need=need)
        data = np.full(1, float(comm.rank), dtype=np.float32)
        out = red.gather_need([data])
        np.testing.assert_array_equal(out, np.arange(comm.size, dtype=np.float32))
        return red.engine_choices()

    return spmd(NPROCS, fn)


def spans_named(records, name):
    return [r for r in records if r.name == name]


@pytest.mark.parametrize("mode", [TRANSPORT_ZEROCOPY, TRANSPORT_PACKED])
@pytest.mark.parametrize("backend", ["alltoallw", "p2p", "auto"])
class TestEngineSpans:
    def test_every_round_traced_with_backend_choice(self, backend, mode):
        with tracing() as tracer, transport(mode):
            choices_per_rank = run_exchange(backend)
        records = tracer.records()

        exchanges = spans_named(records, "ddr.exchange")
        assert len(exchanges) == NPROCS  # one per rank
        for span in exchanges:
            assert span.attrs["backend"] == backend
            assert span.attrs["transport"] == mode
            assert span.rank in range(NPROCS)

        rounds = spans_named(records, "ddr.round")
        assert rounds, "no per-round spans captured"
        per_rank = {}
        for span in rounds:
            per_rank.setdefault(span.rank, []).append(span)
        assert sorted(per_rank) == list(range(NPROCS))
        for rank, rank_rounds in per_rank.items():
            rank_rounds.sort(key=lambda s: s.attrs["round"])
            picked = [s.attrs["backend"] for s in rank_rounds]
            # The trace shows exactly which protocol ran each round.
            assert picked == choices_per_rank[rank]
            if backend != "auto":
                assert picked == [backend] * len(rank_rounds)
            for span in rank_rounds:
                assert span.attrs["lanes"] >= 1
                assert span.attrs["nbytes"] >= 0

    def test_mpi_spans_carry_bytes(self, backend, mode):
        with tracing() as tracer, transport(mode):
            run_exchange(backend)
        mpi = [r for r in tracer.records() if r.category == "mpi"]
        assert mpi, "no mpi.* spans captured"
        moved = [r for r in mpi if "nbytes" in r.attrs]
        assert moved and all(r.attrs["nbytes"] >= 0 for r in moved)
        if backend == "alltoallw":
            collectives = spans_named(mpi, "mpi.Alltoallw")
            assert len(collectives) == NPROCS
            assert all(r.attrs["transport"] == mode for r in collectives)


class TestSpansPerExchange:
    """The span budget of a many-round exchange, pinned: the ``redist_rounds``
    pattern shrunk to ``(16, 16, 128)`` — single z-slices dealt round-robin
    to 4 ranks, each needing a quarter tile — so 32 planned rounds."""

    DIMS = (16, 16, 128)
    EXCHANGES = 3

    @thread_only
    @pytest.mark.parametrize("mode", [TRANSPORT_ZEROCOPY, TRANSPORT_PACKED])
    @pytest.mark.parametrize("backend", ["alltoallw", "p2p"])
    def test_spans_are_a_formula_of_executed_rounds(self, backend, mode):
        x, y, z = self.DIMS

        def fn(comm):
            own = [Box((0, 0, k), (x, y, 1)) for k in range(comm.rank, z, comm.size)]
            need = grid_boxes(self.DIMS, (2, 2, 1))[comm.rank]
            red = Redistributor(comm, ndims=3, dtype=np.float32, backend=backend)
            red.setup(own=own, need=need)
            bufs = [np.zeros(box.np_shape(), np.float32) for box in own]
            out = np.empty(need.np_shape(), np.float32)
            for _ in range(self.EXCHANGES):
                red.exchange(bufs, out)
            executed = executed_rounds(red.mapping, backend, mode == TRANSPORT_ZEROCOPY)
            return red.nrounds, [len(rnd.sends) for rnd in executed]

        with tracing() as tracer, transport(mode):
            results = spmd(NPROCS, fn)
        spans = Counter(r.rank for r in tracer.records())
        # A zero-copy send (and the collective's own lanes) waits for its
        # peer's copy in one ``mpi.wait``; staged transports do not wait.
        waits = 1 if mode == TRANSPORT_ZEROCOPY else 0
        for rank, (planned, sends) in enumerate(results):
            assert planned == 32
            # ddr.exchange, then per executed round: ddr.round plus one
            # message span (mpi.Alltoallw, or mpi.Isend per send lane) and
            # its waits.
            messages = [1 if backend == "alltoallw" else n for n in sends]
            per_exchange = 1 + sum(1 + m * (1 + waits) for m in messages)
            assert spans[rank] == self.EXCHANGES * per_exchange
        # Unbudgeted, all 32 planned rounds run as one.
        assert all(len(sends) == 1 for _, sends in results)
        if backend == "alltoallw" and mode == TRANSPORT_ZEROCOPY:
            assert spans[0] == self.EXCHANGES * 4


class TestDisabledPath:
    def test_no_records_when_disabled(self):
        from repro.obs import TRACER

        assert not TRACER.enabled
        before = len(TRACER)
        run_exchange("auto")
        assert len(TRACER) == before


class TestPipelineSpans:
    def test_phase_spans_cover_the_frame_loop(self):
        config = PipelineConfig(
            lbm=LbmConfig(nx=32, ny=16), m=4, n=2, steps=20, output_every=10
        )

        with tracing() as tracer:
            spmd(6, lambda comm: run_pipeline(comm, config))
        names = {r.name for r in tracer.records()}
        for expected in (
            "phase.sim_step",
            "phase.stream_send",
            "phase.stream_recv",
            "phase.ddr_setup",
            "phase.redistribute",
            "phase.render",
            "phase.encode",
            "ddr.exchange",
        ):
            assert expected in names, f"missing {expected} span"

    def test_phase_spans_land_on_world_ranks(self):
        """Analysis ranks use a Split subcommunicator; their DDR spans must
        still file under world pids."""
        config = PipelineConfig(
            lbm=LbmConfig(nx=32, ny=16), m=4, n=2, steps=10, output_every=10
        )

        with tracing() as tracer:
            spmd(6, lambda comm: run_pipeline(comm, config))
        exchange_ranks = {
            r.rank for r in tracer.records() if r.name == "ddr.exchange"
        }
        assert exchange_ranks == {4, 5}  # the two analysis world ranks
