"""Memory-budget enforcement end to end: one budget rule for every backend.

The acceptance story of the budget machinery: a slab-to-tile redistribution
whose staged peak exceeds ``DDR_MEM_BUDGET_MB`` must *complete bitwise-equal*
under every backend — the over-budget round cut into piece-rounds of its own
protocol — with the ledger's measured high-water mark inside the budget and
drained back to zero afterwards (no staging leaks); a round that no cut fits
ends in the ledger's typed error, before it allocates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Box, Redistributor, compute_global_plan, round_protocol
from repro.core.engine import BACKENDS, execute
from repro.lbm.decompose import slab_box
from repro.mpisim import BYTE, RankFailure
from repro.mpisim.errors import MemoryBudgetError
from repro.utils.membudget import MEMORY_BUDGET, budget_scope
from repro.volren.decompose import grid_boxes, grid_shape
from tests.conftest import slab_exchange, spmd, thread_only

NPROCS = 4
NX, NY = 256, 128
#: A larger geometry (768 KiB staged per rank) for the ``auto`` cases.
BIG_NX, BIG_NY = 1024, 512


def _layout(nprocs: int, rank: int, nx: int, ny: int):
    own = slab_box(nx, ny, nprocs, rank)
    need = grid_boxes((nx, ny), grid_shape(nprocs, (nx, ny)))[rank]
    return own, need


def _exchange(
    comm, backend: str, nx: int = NX, ny: int = NY, generations: int = 2,
    transport: str = "packed",
):
    """Slab-to-tile remap; returns the gathered tiles, one per generation."""
    own_box, need_box = _layout(comm.size, comm.rank, nx, ny)
    red = Redistributor(
        comm, ndims=2, dtype=np.float32, backend=backend, transport=transport
    )
    red.setup(own=[own_box], need=need_box)
    field = np.arange(nx * ny, dtype=np.float32).reshape(ny, nx)
    ox, oy = own_box.offset
    h, w = own_box.np_shape()
    own = np.ascontiguousarray(field[oy : oy + h, ox : ox + w])
    outs = []
    for generation in range(1, generations + 1):
        out = red.gather_need([own * np.float32(generation)], fill=-1.0)
        outs.append(np.array(out, copy=True))
    return outs


def _global_plan(nprocs: int, nx: int, ny: int):
    layouts = [_layout(nprocs, r, nx, ny) for r in range(nprocs)]
    return compute_global_plan(
        [[own] for own, _ in layouts],
        [need for _, need in layouts],
        element_size=4,
    )


def unbounded_peak_bytes(nprocs: int = NPROCS, nx: int = NX, ny: int = NY) -> int:
    """The plan's conservative worst-round staging estimate."""
    return max(_global_plan(nprocs, nx, ny).staged)


def _assert_bitwise(expected, got):
    for want, have in zip(expected, got):
        for w, h in zip(want, have):
            assert np.array_equal(w, h)


#: Both staged transports charge the budget, so both are cut to it.
STAGED = pytest.mark.parametrize("transport", ["packed", "shm"])


@thread_only
class TestBudgetEnforcement:
    @STAGED
    def test_a_round_no_cut_fits_fails_typed(self, transport):
        # A round is cut no finer than one row per lane: a budget under what
        # one row-piece stages is refused by the ledger, typed, on every
        # backend — never an allocation past the budget or a hang.
        budget = unbounded_peak_bytes() // 128
        for backend in BACKENDS:
            with budget_scope(limit_bytes=budget):
                with pytest.raises(RankFailure) as info:
                    spmd(NPROCS, _exchange, backend, transport=transport)
            assert isinstance(info.value.original, MemoryBudgetError), backend

    @STAGED
    @pytest.mark.parametrize("fraction", [1.0, 0.75, 0.5, 0.25])
    def test_bounded_bitwise_within_budget(self, fraction, transport):
        # The acceptance criterion: every backend completes the redistribution
        # byte-for-byte identically under a budget below its one round — also
        # at a quarter, where a 16 KiB lane has to be cut (no byte floor under
        # the pieces: geometry is).
        expected = spmd(NPROCS, _exchange, "alltoallw")
        budget = int(unbounded_peak_bytes() * fraction)
        for backend in BACKENDS:
            with budget_scope(limit_bytes=budget):
                got = spmd(NPROCS, _exchange, backend, transport=transport)
                assert MEMORY_BUDGET.peak_bytes() <= budget, backend
                assert sum(MEMORY_BUDGET._used.values()) == 0  # ledger drained
            _assert_bitwise(expected, got)

    def test_auto_routes_through_bounded_under_budget(self):
        expected = spmd(NPROCS, _exchange, "auto", BIG_NX, BIG_NY)
        budget = unbounded_peak_bytes(NPROCS, BIG_NX, BIG_NY) // 2
        with budget_scope(limit_bytes=budget):
            got = spmd(NPROCS, _exchange, "auto", BIG_NX, BIG_NY)
            assert MEMORY_BUDGET.peak_bytes() <= budget
        _assert_bitwise(expected, got)

    def test_bounded_without_budget_is_pure_ablation(self):
        expected = spmd(NPROCS, _exchange, "alltoallw")
        got = spmd(NPROCS, _exchange, "bounded")
        _assert_bitwise(expected, got)

    def test_generous_budget_admits_strict_engine(self):
        with budget_scope(limit_bytes=4 * unbounded_peak_bytes()):
            got = spmd(NPROCS, _exchange, "alltoallw")
            assert sum(MEMORY_BUDGET._used.values()) == 0
        assert len(got) == NPROCS


@thread_only
def test_staged_wires_share_the_rounds_cut_to_the_budget():
    # packed and shm both stage what they send, so both run the rounds cut to
    # the budget: one cached variant under (backend, cap).  zerocopy stages
    # nothing and runs the uncut rounds, cached under (backend, None).
    budget = unbounded_peak_bytes() // 2

    def fn(comm):
        own_box, need_box = _layout(comm.size, comm.rank, NX, NY)
        red = Redistributor(comm, ndims=2, dtype=np.float32, backend="p2p")
        red.setup(own=[own_box], need=need_box)
        own = np.full(own_box.np_shape(), comm.rank, np.float32)
        keys = []
        for transport in ("packed", "shm", "zerocopy"):
            out = np.full(need_box.np_shape(), -1, np.float32)
            execute(comm, red.mapping, [own], out, "p2p", transport)
            assert (out >= 0).all(), transport
            keys.append(set(red.mapping.executed))
        return keys, {key: len(rounds) for key, rounds in red.mapping.executed.items()}

    with budget_scope(limit_bytes=budget):
        results = spmd(NPROCS, fn)
    capped, uncapped = ("p2p", budget), ("p2p", None)
    for keys, lengths in results:
        assert keys == [{capped}, {capped}, {capped, uncapped}]
        assert lengths[capped] > lengths[uncapped]


def _executed(plan, backend: str, limit) -> list:
    """Rank 0's executed rounds, typed as ``element_size`` bytes a cell."""
    return plan.rank_plans([0])[0].executed(backend, limit, BYTE, plan.element_size, {})


def _lowered(plan, backend: str, limit) -> bool:
    """Whether rank 0 runs ``plan``'s one round as piece-rounds (each by the
    whole round's protocol)."""
    rounds = _executed(plan, backend, limit)
    if len(rounds) == 1:
        assert (rounds[0].members, rounds[0].pieces) == ((0,), 1)
        return False
    assert [(r.piece, r.pieces, r.members) for r in rounds] == [
        (j, len(rounds), (0,)) for j in range(len(rounds))
    ]
    assert {round_protocol(backend, r) for r in rounds} == set(plan.table.protocols(backend))
    return True


class TestAutoPick:
    """The engine lowers a round iff the budget binds on its staged estimate
    (the limit the engine hands it is ``None`` on a direct transport), under
    every backend; the protocol stays the static rule's."""

    def _schedule(self, nx: int, ny: int):
        plan = _global_plan(NPROCS, nx, ny)
        assert plan.nrounds == 1
        return plan

    def test_tight_budget_picks_bounded(self):
        plan = self._schedule(BIG_NX, BIG_NY)
        limit = plan.staged[0] // 2
        for backend in BACKENDS:
            assert _lowered(plan, backend, limit)
            # ceil(staged / (limit // 2)) pieces: two may be resident at once.
            assert len(_executed(plan, backend, limit)) == 4

    def test_small_round_falls_back_best_effort(self):
        # There is no byte floor under a piece — a 48 KiB round is cut like a
        # large one — but geometry is one: lanes a single row tall cannot be
        # lowered further, and whatever auto picks is best effort (the ledger
        # still enforces the hard line at run time).
        assert _lowered(self._schedule(NX, NY), "auto", unbounded_peak_bytes() // 2)
        owns = [[Box((0, r), (64, 1))] for r in range(NPROCS)]
        needs = [Box((16 * r, 0), (16, NPROCS)) for r in range(NPROCS)]
        plan = compute_global_plan(owns, needs, element_size=4)
        assert plan.rows == [1]
        assert not any(_lowered(plan, backend, 1) for backend in BACKENDS)

    def test_generous_budget_keeps_static_rule(self):
        plan = self._schedule(NX, NY)
        (unbudgeted,) = plan.table.protocols("auto")
        assert unbudgeted in ("alltoallw", "p2p")
        (rnd,) = _executed(plan, "auto", 64 * plan.staged[0])
        assert (rnd.members, rnd.pieces) == ((0,), 1)
        assert round_protocol("auto", rnd) == unbudgeted

    @pytest.mark.parametrize(
        "nprocs, side, dense",
        [(4, 64, True), (8, 64, True), (8, 1024, True), (27, 216, True), (8, 64, False)],
    )
    def test_only_a_binding_budget_changes_auto(self, nprocs, side, dense):
        owns, needs = slab_exchange(nprocs, side, dense)
        plan = compute_global_plan(owns, needs, element_size=4)
        (staged,) = plan.staged
        protocol = "alltoallw" if dense else "p2p"
        assert plan.table.protocols("auto") == [protocol]
        for k in (1, 4, 64):
            assert not _lowered(plan, "auto", k * staged)
        # A binding budget cuts the round; a dense round's pieces stay collective.
        assert _lowered(plan, "auto", staged - 1)
        pieces = _executed(plan, "auto", staged - 1)
        assert {round_protocol("auto", piece) for piece in pieces} == {protocol}
        # Nothing is staged on a direct transport: the engine passes no limit.
        assert not _lowered(plan, "auto", None)
