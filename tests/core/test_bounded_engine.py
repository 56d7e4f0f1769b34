"""Memory-budget enforcement end to end: strict refusal, bounded lowering.

The acceptance story of the budget machinery: a slab-to-tile redistribution
whose staged peak exceeds ``DDR_MEM_BUDGET_MB`` must *refuse* (typed, before
allocating) under the strict backends, and *complete bitwise-equal* under the
``bounded`` backend at roughly half the unbounded peak — with the ledger
drained back to zero afterwards (no staging leaks).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    MIN_CHUNK_BYTES,
    PIECE_INFLIGHT,
    Redistributor,
    compute_global_plan,
    round_protocol,
)
from repro.lbm.decompose import slab_box
from repro.mpisim import RankFailure
from repro.mpisim.errors import MemoryBudgetError
from repro.utils.membudget import MEMORY_BUDGET, budget_scope
from repro.volren.decompose import grid_boxes, grid_shape
from tests.conftest import slab_exchange, spmd, thread_only

NPROCS = 4
NX, NY = 256, 128
#: Geometry big enough that ``PIECE_INFLIGHT * MIN_CHUNK_BYTES`` fits under
#: half the unbounded peak, so lowering actually lands under the budget
#: (smaller rounds hit the piece floor and are best effort).
BIG_NX, BIG_NY = 1024, 512


def _layout(nprocs: int, rank: int, nx: int, ny: int):
    own = slab_box(nx, ny, nprocs, rank)
    need = grid_boxes((nx, ny), grid_shape(nprocs, (nx, ny)))[rank]
    return own, need


def _exchange(comm, backend: str, nx: int = NX, ny: int = NY, generations: int = 2):
    """Slab-to-tile remap; returns the gathered tiles, one per generation."""
    own_box, need_box = _layout(comm.size, comm.rank, nx, ny)
    red = Redistributor(
        comm, ndims=2, dtype=np.float32, backend=backend, transport="packed"
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
    """The strict backends' conservative per-round staging estimate."""
    return max(r.max_round_bytes for r in _global_plan(nprocs, nx, ny).schedules[0].rounds)


def _assert_bitwise(expected, got):
    for want, have in zip(expected, got):
        for w, h in zip(want, have):
            assert np.array_equal(w, h)


@thread_only
class TestBudgetEnforcement:
    def test_strict_engine_refuses_over_budget_typed(self):
        budget = unbounded_peak_bytes() // 2
        with budget_scope(limit_bytes=budget):
            with pytest.raises(RankFailure) as info:
                spmd(NPROCS, _exchange, "alltoallw")
        assert isinstance(info.value.original, MemoryBudgetError)
        # The refusal message routes the user to the way out.
        assert "bounded" in str(info.value.original)

    @pytest.mark.parametrize("fraction", [1.0, 0.75, 0.5])
    def test_bounded_bitwise_within_budget(self, fraction):
        # The acceptance criterion: the same redistribution that the strict
        # engine refuses at half the unbounded peak completes byte-for-byte
        # identically via bounded lowering.
        expected = spmd(NPROCS, _exchange, "alltoallw")
        budget = int(unbounded_peak_bytes() * fraction)
        with budget_scope(limit_bytes=budget):
            got = spmd(NPROCS, _exchange, "bounded")
            assert MEMORY_BUDGET.peak_bytes() <= budget
            assert MEMORY_BUDGET.total_used_bytes() == 0  # ledger drained
        _assert_bitwise(expected, got)

    def test_auto_routes_through_bounded_under_budget(self):
        expected = spmd(NPROCS, _exchange, "auto", BIG_NX, BIG_NY)
        budget = unbounded_peak_bytes(NPROCS, BIG_NX, BIG_NY) // 2
        assert budget >= PIECE_INFLIGHT * MIN_CHUNK_BYTES  # bounded can fit
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
            assert MEMORY_BUDGET.total_used_bytes() == 0
        assert len(got) == NPROCS


class TestAutoPick:
    def _dense_round(self, nx: int, ny: int):
        schedule = _global_plan(NPROCS, nx, ny).schedules[0]
        return max(schedule.rounds, key=lambda r: r.max_round_bytes)

    def test_tight_budget_picks_bounded(self):
        rnd = self._dense_round(BIG_NX, BIG_NY)
        with budget_scope(limit_bytes=rnd.max_round_bytes // 2):
            assert round_protocol("auto", rnd, False) == "bounded"

    def test_small_round_falls_back_best_effort(self):
        # Lanes below the MIN_CHUNK floor cannot be lowered further: whatever
        # auto picks is best effort (the ledger still enforces the hard line
        # at run time).
        rnd = self._dense_round(NX, NY)
        assert rnd.max_round_bytes // 2 < PIECE_INFLIGHT * MIN_CHUNK_BYTES
        with budget_scope(limit_bytes=rnd.max_round_bytes // 2):
            assert round_protocol("auto", rnd, False) in (
                "alltoallw", "p2p", "bounded",
            )

    def test_generous_budget_keeps_static_rule(self):
        rnd = self._dense_round(NX, NY)
        unbudgeted = round_protocol("auto", rnd, False)
        assert unbudgeted in ("alltoallw", "p2p")
        with budget_scope(limit_bytes=64 * rnd.max_round_bytes):
            assert round_protocol("auto", rnd, False) == unbudgeted

    @pytest.mark.parametrize(
        "nprocs, side, dense",
        [(4, 64, True), (8, 64, True), (8, 1024, True), (27, 216, True), (8, 64, False)],
    )
    def test_only_a_binding_budget_changes_auto(self, nprocs, side, dense):
        owns, needs = slab_exchange(nprocs, side, dense)
        (rnd,) = compute_global_plan(owns, needs, element_size=4).schedules[0].rounds
        unbudgeted = round_protocol("auto", rnd, False)
        assert unbudgeted == ("alltoallw" if dense else "p2p")
        for k in (1, 4, 64):
            with budget_scope(limit_bytes=k * rnd.max_round_bytes):
                assert round_protocol("auto", rnd, False) == unbudgeted
        with budget_scope(limit_bytes=rnd.max_round_bytes - 1):
            assert round_protocol("auto", rnd, False) == "bounded"
            # Nothing is staged on a direct transport: the limit is moot.
            assert round_protocol("auto", rnd, True) == unbudgeted
