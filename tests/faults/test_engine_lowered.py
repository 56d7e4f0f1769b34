"""Round retries, resume and message order when an executed round is a piece.

Under a budget below one planned round, ``bounded`` / ``auto`` run the round
as k piece-rounds (``repro.core.schedule.RankPlan.executed``).  The planned round stays
the unit of everything ``test_engine_retry.py`` and ``test_engine_merged.py``
pin: the fault layer's round-entry hook fires on the first piece only,
``ExchangeProgress.completed`` records the round after its last piece, and
the pieces of a lane share the round's tag, in FIFO order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Box, ExchangeProgress, Redistributor, engine
from repro.faults import FAULTS, FaultPlan, FaultSpec, ReliabilityPolicy, fault_plan
from repro.obs import tracing
from repro.utils.membudget import MEMORY_BUDGET, budget_scope
from tests.conftest import engine_choices, spmd, thread_only

SIDE, NPROCS, PIECES = 32, 4, 4
#: Each planned round stages 896 B on every rank (3 x 128 B out, as much in,
#: 128 B kept); under half of that it runs as ceil(896 / 224) = 4 pieces,
#: one row of every lane each.
BUDGET = 448


def prepared(comm):
    """Rank r owns rows [4r, 4r + 4) and [16 + 4r, 16 + 4r + 4) of a 32 x 32
    float32 field and needs columns [8r, 8r + 8): two dense planned rounds."""
    r = comm.rank
    own = [Box((0, 4 * r), (SIDE, 4)), Box((0, 16 + 4 * r), (SIDE, 4))]
    need = Box((8 * r, 0), (8, SIDE))
    red = Redistributor(comm, ndims=2, dtype=np.float32, backend="bounded", transport="packed")
    red.setup(own=own, need=need)
    assert red.nrounds == 2 and engine_choices(red) == ["p2p", "p2p"]
    reference = np.arange(SIDE * SIDE, dtype=np.float32).reshape(SIDE, SIDE)
    data = [reference[b.offset[1] : b.offset[1] + 4].copy() for b in own]
    out = np.full((SIDE, 8), -1, dtype=np.float32)
    return red, data, out, reference[:, 8 * r : 8 * r + 8]


def round_spans(tracer):
    return sorted(
        (r.rank, r.attrs["round"], r.attrs["piece"], r.attrs["pieces"])
        for r in tracer.records() if r.name == "ddr.round"
    )


@thread_only
def test_entry_fault_on_a_lowered_round_is_retried_once_per_planned_round():
    def fn(comm):
        red, data, out, expect = prepared(comm)
        progress = red.exchange(data, out)
        assert np.array_equal(out, expect)
        return progress

    plan = FaultPlan(
        seed=0, nranks=NPROCS,
        events=tuple(
            FaultSpec(kind="round", rank=rank, op=1, count=2) for rank in range(NPROCS)
        ),
    )
    policy = ReliabilityPolicy(max_retries=3, backoff_base_s=0.0001)
    with budget_scope(limit_bytes=BUDGET), fault_plan(plan, policy), tracing() as tracer:
        for progress in spmd(NPROCS, fn):
            assert progress.completed == {0, 1}
            assert progress.retries == {1: 2}  # not 2 x PIECES
        assert FAULTS.stats.get("round_faults") == 2 * NPROCS
        assert MEMORY_BUDGET.peak_bytes() <= BUDGET
    assert round_spans(tracer) == [
        (rank, index, piece, PIECES)
        for rank in range(NPROCS) for index in (0, 1) for piece in range(PIECES)
    ]


class Interrupted(Exception):
    pass


@thread_only
def test_failure_between_two_pieces_resumes_the_round_from_its_first_piece(monkeypatch):
    direct_round, interrupted = engine._direct_round, set()

    def flaky(comm, rnd, *rest):
        # Every rank has finished pieces 0 and 1 of round 1 when it gets here.
        if (rnd.index, rnd.piece) == (1, 2) and comm.rank not in interrupted:
            interrupted.add(comm.rank)
            raise Interrupted
        direct_round(comm, rnd, *rest)

    monkeypatch.setattr(engine, "_direct_round", flaky)

    def fn(comm):
        red, data, out, expect = prepared(comm)
        progress = ExchangeProgress()
        with pytest.raises(Interrupted):
            red.exchange(data, out, progress=progress)
        # Two of round 1's four pieces ran: the round is not recorded.
        assert progress.completed == {0}
        epoch = progress.tag_epoch
        comm.Barrier()
        resumed = red.exchange(data, out, progress=progress)
        assert resumed is progress and progress.tag_epoch == epoch
        assert progress.completed == {0, 1}
        assert np.array_equal(out, expect)
        return True

    with budget_scope(limit_bytes=BUDGET), tracing() as tracer:
        assert all(spmd(NPROCS, fn))
        assert sum(MEMORY_BUDGET._used.values()) == 0
    # Round 0 ran once (skipped on resume); round 1 got as far as entering
    # piece 2, then re-ran from piece 0.
    assert round_spans(tracer) == sorted(
        (rank, index, piece, PIECES)
        for rank in range(NPROCS)
        for index, pieces in ((0, (0, 1, 2, 3)), (1, (0, 1, 2, 0, 1, 2, 3)))
        for piece in pieces
    )


@thread_only
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_delays_cannot_reorder_the_pieces_of_a_lane(seed):
    def fn(comm):
        red, data, out, expect = prepared(comm)
        for generation in (1, 2):  # tag epochs 0 and 1
            red.exchange([chunk * generation for chunk in data], out)
            assert np.array_equal(out, expect * generation)
        return True

    # Half of all sends and receives stall up to 2 ms; the pieces of a lane
    # share (source, tag), which the mailbox keeps in posting order.
    plan = FaultPlan(seed=seed, nranks=NPROCS, p_delay=0.5, delay_max_s=0.002)
    with budget_scope(limit_bytes=BUDGET), fault_plan(plan), tracing() as tracer:
        assert all(spmd(NPROCS, fn))
        assert FAULTS.stats.get("delays") > 0
    tags = {r.attrs["tag"] for r in tracer.records() if r.name == "mpi.Isend"}
    assert tags == {0, 1, 2, 3}  # epoch * 2 + planned round, whatever the piece
