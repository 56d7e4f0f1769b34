"""The executor and the mapping lifecycle.

Covers the ``DDR_BACKEND`` override, the ``auto`` backend's plan-driven
protocol selection (sparse -> direct sends, dense -> collective, mixed plans
-> both in one exchange), the guarantee that the trace, ``engine_choices()``
and the wire name the same protocol, and the first-class mapping handles:
re-``setup()`` invalidates the previous mapping, independent handles from
``new_mapping()`` stay live concurrently, and stale use fails loudly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Box, Redistributor, StaleMappingError, default_backend
from repro.obs import tracing
from repro.utils.membudget import budget_scope
from tests.conftest import engine_choices, spmd, thread_only


class TestDefaultBackend:
    def test_unknown_backend_raises(self):
        def fn(comm):
            with pytest.raises(ValueError, match="unknown backend"):
                Redistributor(comm, ndims=1, dtype=np.float32, backend="carrier-pigeon")

        spmd(1, fn)

    def test_default_backend_plain(self, monkeypatch):
        monkeypatch.delenv("DDR_BACKEND", raising=False)
        assert default_backend() == "alltoallw"

    def test_default_backend_env_override(self, monkeypatch):
        monkeypatch.setenv("DDR_BACKEND", "auto")
        assert default_backend() == "auto"

        def fn(comm):
            return Redistributor(comm, ndims=1, dtype=np.float32).backend

        assert spmd(2, fn) == ["auto", "auto"]

    def test_default_backend_env_invalid(self, monkeypatch):
        monkeypatch.setenv("DDR_BACKEND", "smoke-signals")
        with pytest.raises(ValueError, match="DDR_BACKEND"):
            default_backend()


def ring_layout(nprocs: int, rank: int):
    """Sparse: rank owns cell ``rank``, needs cell ``rank + 1`` (mod P)."""
    return [Box((rank,), (1,))], Box(((rank + 1) % nprocs,), (1,))


def dense_layout(nprocs: int, rank: int):
    """Dense: rank owns cell ``rank``, needs the whole domain."""
    return [Box((rank,), (1,))], Box((0,), (nprocs,))


class TestAutoBackend:
    def test_picks_p2p_on_sparse_plan(self):
        def fn(comm):
            red = Redistributor(comm, ndims=1, dtype=np.float32, backend="auto")
            own, need = ring_layout(comm.size, comm.rank)
            red.setup(own=own, need=need)
            data = np.full(1, float(comm.rank), dtype=np.float32)
            out = red.gather_need([data])
            assert out[0] == (comm.rank + 1) % comm.size
            return engine_choices(red)

        for choices in spmd(6, fn):
            assert choices == ["p2p"]

    def test_picks_alltoallw_on_dense_plan(self):
        def fn(comm):
            red = Redistributor(comm, ndims=1, dtype=np.float32, backend="auto")
            own, need = dense_layout(comm.size, comm.rank)
            red.setup(own=own, need=need)
            data = np.full(1, float(comm.rank), dtype=np.float32)
            out = red.gather_need([data])
            assert np.array_equal(out, np.arange(comm.size, dtype=np.float32))
            return engine_choices(red)

        for choices in spmd(6, fn):
            assert choices == ["alltoallw"]

    def test_mixed_plan_uses_both_protocols_in_one_exchange(self):
        # Rank 0 owns a wide chunk feeding three ranks (collective round) and
        # a narrow chunk feeding exactly one (direct round); the other ranks
        # own nothing and just receive.
        nprocs = 4

        def fn(comm):
            red = Redistributor(comm, ndims=1, dtype=np.float32, backend="auto")
            own = [Box((0,), (6,)), Box((6,), (2,))] if comm.rank == 0 else []
            need = Box((comm.rank * 2,), (2,))
            red.setup(own=own, need=need)
            assert engine_choices(red) == ["alltoallw", "p2p"]
            buffers = (
                [np.arange(6, dtype=np.float32), np.arange(6, 8, dtype=np.float32)]
                if comm.rank == 0
                else []
            )
            out = red.gather_need(buffers)
            assert np.array_equal(
                out, np.arange(comm.rank * 2, comm.rank * 2 + 2, dtype=np.float32)
            )
            return True

        assert all(spmd(nprocs, fn))


@thread_only
class TestProtocolAgreement:
    """Row slabs -> column slabs of a 256x256 float32 array on 4 ranks under
    a 64 KiB budget: the output is the numpy crop, and the round span,
    ``engine_choices()`` and the wire name the same protocol, for the
    instance's own backend and transport."""

    SIDE, LIMIT = 256, 64 * 1024

    def run(self, backend, transport, limit=LIMIT):
        rows = self.SIDE // 4
        field = np.arange(self.SIDE * self.SIDE, dtype=np.float32).reshape(self.SIDE, -1)

        def fn(comm):
            r = comm.rank
            red = Redistributor(
                comm, ndims=2, dtype=np.float32, backend=backend, transport=transport
            )
            red.setup(
                own=[Box((0, r * rows), (self.SIDE, rows))],
                need=Box((r * rows, 0), (rows, self.SIDE)),
            )
            out = red.gather_need([field[r * rows : (r + 1) * rows]])
            assert np.array_equal(out, field[:, r * rows : (r + 1) * rows])
            return engine_choices(red)

        with budget_scope(limit_bytes=limit), tracing() as tracer:
            choices = spmd(4, fn)
        self.records = tracer.records()
        names = [r.name for r in self.records]
        rounds = [r.attrs["backend"] for r in self.records if r.name == "ddr.round"]
        return choices, rounds, names

    def test_auto_on_zerocopy_reports_the_collective_it_runs(self):
        choices, rounds, names = self.run("auto", "zerocopy")
        assert choices == [["alltoallw"]] * 4 and rounds == ["alltoallw"] * 4
        assert names.count("mpi.Alltoallw") == 4 and "ddr.lowering" not in names

    def test_bounded_on_zerocopy_reports_the_direct_sends_it_runs(self):
        choices, rounds, names = self.run("bounded", "zerocopy")
        assert choices == [["p2p"]] * 4 and rounds == ["p2p"] * 4
        assert "mpi.Isend" in names and "ddr.lowering" not in names

    def test_bounded_on_packed_lowers_and_says_so(self):
        choices, rounds, names = self.run("bounded", "packed")
        # The 112 KiB round runs as ceil(112 / 32) = 4 direct piece-rounds.
        assert choices == [["p2p"]] * 4 and rounds == ["p2p"] * 16
        assert "mpi.Alltoallw" not in names
        records = [r for r in self.records if r.name == "ddr.round"]
        assert sorted((r.rank, r.attrs["piece"], r.attrs["pieces"]) for r in records) == [
            (rank, piece, 4) for rank in range(4) for piece in range(4)
        ]
        spans = [r.attrs for r in records]
        assert {(a["round"], tuple(a["covers"])) for a in spans} == {(0, (0,))}
        exchanges = [r.attrs for r in self.records if r.name == "ddr.exchange"]
        assert {(a["rounds"], a["executed"]) for a in exchanges} == {(1, 4)}
        assert sum(a["nbytes"] for a in spans) == 4 * 48 * 1024  # every lane, once

    def test_alltoallw_on_packed_runs_every_piece_as_a_collective(self):
        # The paper's engine under half its worst round (56 of 112 KiB): the
        # round is cut, not refused, and every piece is one Alltoallw.
        choices, rounds, names = self.run("alltoallw", "packed", 56 * 1024)
        assert choices == [["alltoallw"]] * 4 and rounds == ["alltoallw"] * 16
        assert names.count("mpi.Alltoallw") == 16 and "mpi.Isend" not in names
        records = [r for r in self.records if r.name == "ddr.round"]
        assert sorted((r.rank, r.attrs["piece"], r.attrs["pieces"]) for r in records) == [
            (rank, piece, 4) for rank in range(4) for piece in range(4)
        ]

    @pytest.mark.parametrize("backend", ["alltoallw", "p2p"])
    def test_engine_choices_name_every_piece(self, backend):
        # Staged, the round peaks at 112 KiB > 64 KiB: both run it in four
        # pieces of their own protocol, and answer once for the round.
        choices, rounds, names = self.run(backend, "packed")
        assert choices == [[backend]] * 4 and rounds == [backend] * 16
        assert ("mpi.Isend" in names) == (backend == "p2p")
        # Nothing is staged on zerocopy: the round runs whole.
        choices, rounds, _ = self.run(backend, "zerocopy")
        assert choices == [[backend]] * 4 and rounds == [backend] * 4


class TestMappingLifecycle:
    def test_resetup_invalidates_previous_mapping(self):
        def fn(comm):
            red = Redistributor(comm, ndims=1, dtype=np.float32)
            own, need = ring_layout(comm.size, comm.rank)
            first = red.setup(own=own, need=need)
            data = np.zeros(1, dtype=np.float32)
            out = np.zeros(1, dtype=np.float32)
            red.exchange([data], out)  # populates first's buffer cache
            assert first.buffer_cache.signature([data], out) == first.buffer_cache._signature

            second = red.setup(own=own, need=need)
            assert first.stale and not second.stale
            assert red.mapping is second
            # The superseded mapping dropped its caches.
            assert first.buffer_cache._signature is None
            with pytest.raises(StaleMappingError, match="invalidated"):
                red.exchange([data], out, mapping=first)
            return True

        assert all(spmd(3, fn))

    def test_concurrent_mappings_exchange_independently(self):
        def fn(comm):
            nprocs, rank = comm.size, comm.rank
            red = Redistributor(comm, ndims=1, dtype=np.float32)
            ring_own, ring_need = ring_layout(nprocs, rank)
            red.setup(own=ring_own, need=ring_need)
            dense_own, dense_need = dense_layout(nprocs, rank)
            dense = red.new_mapping(own=dense_own, need=dense_need)

            data = np.full(1, float(rank), dtype=np.float32)
            for _ in range(2):  # repeat: per-mapping caches must not thrash
                ring_out = red.gather_need([data])
                assert ring_out[0] == (rank + 1) % nprocs
                dense_out = red.gather_need([data], mapping=dense)
                assert np.array_equal(dense_out, np.arange(nprocs, dtype=np.float32))
            return True

        assert all(spmd(4, fn))

    def test_new_mapping_survives_resetup(self):
        def fn(comm):
            nprocs, rank = comm.size, comm.rank
            red = Redistributor(comm, ndims=1, dtype=np.float32)
            dense_own, dense_need = dense_layout(nprocs, rank)
            handle = red.new_mapping(own=dense_own, need=dense_need)
            ring_own, ring_need = ring_layout(nprocs, rank)
            red.setup(own=ring_own, need=ring_need)
            red.setup(own=ring_own, need=ring_need)  # churn the active slot
            assert not handle.stale
            data = np.full(1, float(rank), dtype=np.float32)
            out = red.gather_need([data], mapping=handle)
            assert np.array_equal(out, np.arange(nprocs, dtype=np.float32))
            return True

        assert all(spmd(3, fn))

    def test_stale_error_is_loud_and_specific(self):
        def fn(comm):
            red = Redistributor(comm, ndims=1, dtype=np.float32)
            own, need = ring_layout(comm.size, comm.rank)
            first = red.setup(own=own, need=need)
            red.setup(own=own, need=need)
            data = np.zeros(1, dtype=np.float32)
            out = np.zeros(1, dtype=np.float32)
            try:
                red.exchange([data], out, mapping=first)
            except StaleMappingError as error:
                return str(error)
            return None

        for message in spmd(2, fn):
            assert message is not None
            assert "new_mapping" in message and "setup()" in message
        return None


@thread_only
class TestExecutedRounds:
    """Round-robin 128^3 float32 over 4 ranks (the benchmark's ``redist_rounds``
    geometry): 32 planned rounds of 12 remote 16 KiB messages each are
    executed as one round of 12 — one message per peer, not per chunk slot."""

    def run(self, backend):
        from repro.volren.decompose import grid_boxes

        needs = grid_boxes((128, 128, 128), (2, 2, 1))

        def fn(comm):
            own = [Box((0, 0, k), (128, 128, 1)) for k in range(comm.rank, 128, 4)]
            red = Redistributor(
                comm, ndims=3, dtype=np.float32, backend=backend, transport="zerocopy"
            )
            red.setup(own=own, need=needs[comm.rank])
            data = [np.full((1, 128, 128), float(b.offset[2]), np.float32) for b in own]
            out = red.gather_need(data)
            assert np.array_equal(out[:, 0, 0], np.arange(128, dtype=np.float32))
            return red.nrounds, engine_choices(red)

        with tracing() as tracer:
            results = spmd(4, fn)
        assert results == [(32, [backend] * 32)] * 4  # the plan still says 32
        return tracer.records()

    def test_direct_rounds_post_one_message_per_peer(self):
        records = self.run("p2p")
        assert sum(r.name == "mpi.Isend" for r in records) == 12  # 384 unmerged
        assert {r.attrs["nbytes"] for r in records if r.name == "mpi.Isend"} == {512 * 1024}

    def test_collective_rounds_run_one_alltoallw(self):
        records = self.run("alltoallw")
        collectives = [r.attrs for r in records if r.name == "mpi.Alltoallw"]
        assert len(collectives) == 4  # one per rank; 128 unmerged
        assert sum(a["lanes"] - 1 for a in collectives) == 12  # remote lanes
        (span,) = {
            (r.attrs["rounds"], r.attrs["executed"])
            for r in records if r.name == "ddr.exchange"
        }
        assert span == (32, 1)
