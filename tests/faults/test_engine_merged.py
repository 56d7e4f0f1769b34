"""Round retries and resume when executed rounds are merged groups.

The engine runs consecutive planned rounds of one protocol as one executed
round (``repro.core.schedule.RankPlan.executed``).  The fault layer's round-entry hook
then fires once per executed round, under the *first* member's index, while
``ExchangeProgress.completed`` keeps recording planned indices — so retry
counts and resume mean what ``test_engine_retry.py`` pins for single rounds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Box, ExchangeProgress, Redistributor
from repro.faults import FAULTS, FaultPlan, FaultSpec, ReliabilityPolicy, fault_plan
from repro.mpisim import RetriesExhaustedError
from repro.obs import tracing
from tests.conftest import engine_choices, spmd


def prepared(comm):
    """Rank 0 owns two wide chunks every rank needs part of (dense rounds 0
    and 1) and two narrow ones only rank 3 needs (sparse rounds 2 and 3), so
    ``auto`` executes two merged groups: (0, 1) collectively, (2, 3) direct."""
    own = [Box((0,), (8,)), Box((8,), (8,)), Box((16,), (2,)), Box((18,), (2,))]
    need = [Box((0,), (16,)), Box((4,), (8,)), Box((6,), (4,)), Box((7,), (13,))][comm.rank]
    own = own if comm.rank == 0 else []
    red = Redistributor(comm, ndims=1, dtype=np.float32, backend="auto")
    red.setup(own=own, need=need)
    assert red.nrounds == 4
    assert engine_choices(red) == ["alltoallw", "alltoallw", "p2p", "p2p"]
    reference = np.arange(20, dtype=np.float32)
    data = [reference[b.offset[0] : b.offset[0] + b.dims[0]].copy() for b in own]
    out = np.full(need.dims[0], -1, dtype=np.float32)
    return red, data, out, reference[need.offset[0] : need.offset[0] + need.dims[0]]


def round_faults(*scripted):
    """The same ``(round, failing attempts)`` entry faults on all four ranks."""
    return FaultPlan(
        seed=0, nranks=4,
        events=tuple(
            FaultSpec(kind="round", rank=rank, op=op, count=count)
            for rank in range(4) for op, count in scripted
        ),
    )


def test_entry_fault_on_a_merged_group_heals_by_retry():
    def fn(comm):
        red, data, out, expect = prepared(comm)
        progress = red.exchange(data, out)
        assert np.array_equal(out, expect)
        return progress

    # Round 3 is a member, never an entry point: its fault cannot fire.
    policy = ReliabilityPolicy(max_retries=3, backoff_base_s=0.0001)
    with fault_plan(round_faults((2, 2), (3, 50)), policy):
        for progress in spmd(4, fn):
            assert progress.completed == {0, 1, 2, 3}
            assert progress.retries == {2: 2}


def test_failed_merged_group_resumes_bitwise():
    def fn(comm):
        red, data, out, expect = prepared(comm)
        progress = ExchangeProgress()
        with pytest.raises(RetriesExhaustedError, match="round 2"):
            red.exchange(data, out, progress=progress)
        # The collective group finished; the direct one never started.
        assert progress.completed == {0, 1}
        epoch = progress.tag_epoch
        comm.Barrier()
        if comm.rank == 0:
            FAULTS.clear()  # the fault was transient after all
        comm.Barrier()
        resumed = red.exchange(data, out, progress=progress)
        assert resumed is progress and progress.tag_epoch == epoch
        assert progress.completed == {0, 1, 2, 3}
        assert np.array_equal(out, expect)
        return True

    policy = ReliabilityPolicy(max_retries=1, backoff_base_s=0.0001)
    with fault_plan(round_faults((2, 50)), policy):
        assert all(spmd(4, fn))


def test_spans_say_what_ran_and_tags_follow_the_first_member():
    def fn(comm):
        red, data, out, expect = prepared(comm)
        red.exchange(data, out)
        red.exchange(data, out)  # tag epoch 1
        assert np.array_equal(out, expect)
        return True

    with tracing() as tracer:
        assert all(spmd(4, fn))
    records = tracer.records()
    exchanges = [r.attrs for r in records if r.name == "ddr.exchange"]
    assert {(a["rounds"], a["executed"]) for a in exchanges} == {(4, 2)}
    rounds = [r.attrs for r in records if r.name == "ddr.round"]
    assert len(rounds) == 4 * 2 * 2  # ranks x exchanges x executed rounds
    assert {(a["round"], tuple(a["covers"]), a["members"], a["backend"]) for a in rounds} == {
        (0, (0, 1), 2, "alltoallw"), (2, (2, 3), 2, "p2p"),
    }
    # One direct message per exchange (rank 0 -> rank 3), tagged epoch * 4 + 2.
    assert sorted(r.attrs["tag"] for r in records if r.name == "mpi.Isend") == [2, 6]
    assert sum(r.name == "mpi.Alltoallw" for r in records) == 4 * 2
