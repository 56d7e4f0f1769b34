"""Engine-level recovery: round retries, exhaustion, and resumable progress.

Round-entry faults (``kind="round"``) fire *before* any message of the
round is posted, so the engine retries them locally without disturbing
collective matching; these tests script such faults and assert the
exchange still produces bitwise-correct output, records its retries in
``ExchangeProgress``, and skips already-completed rounds on resume.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Box, ExchangeProgress, Redistributor
from repro.faults import FaultPlan, FaultSpec, ReliabilityPolicy, fault_plan
from repro.mpisim import RankFailure, RetriesExhaustedError
from tests.conftest import spmd


def ring_layout(nprocs: int, rank: int):
    """Each rank owns cell ``rank`` and needs its right neighbour's cell."""
    return [Box((rank,), (1,))], Box(((rank + 1) % nprocs,), (1,))


def _ring_exchange(comm):
    red = Redistributor(comm, ndims=1, dtype=np.float32, backend="p2p")
    own, need = ring_layout(comm.size, comm.rank)
    red.setup(own=own, need=need)
    data = np.full(1, float(comm.rank), dtype=np.float32)
    out = np.zeros(1, dtype=np.float32)
    progress = red.exchange([data], out)
    assert out[0] == (comm.rank + 1) % comm.size
    return progress


class TestRoundRetry:
    def test_scripted_round_fault_healed_by_retry(self):
        plan = FaultPlan(
            seed=0, nranks=3,
            events=(FaultSpec(kind="round", rank=0, op=0, count=2),),
        )
        policy = ReliabilityPolicy(max_retries=3, backoff_base_s=0.0001)
        with fault_plan(plan, policy):
            progresses = spmd(3, _ring_exchange)
        assert isinstance(progresses[0], ExchangeProgress)
        assert progresses[0].retries.get(0) == 2
        assert sum(progresses[0].retries.values()) == 2
        # Unfaulted ranks retried nothing.
        assert progresses[1].retries == {}
        assert progresses[2].retries == {}

    def test_retry_budget_exhaustion_raises_typed_error(self):
        plan = FaultPlan(
            seed=0, nranks=3,
            events=(FaultSpec(kind="round", rank=0, op=0, count=50),),
        )
        policy = ReliabilityPolicy(max_retries=2, backoff_base_s=0.0001)
        with fault_plan(plan, policy):
            with pytest.raises(RankFailure) as excinfo:
                spmd(3, _ring_exchange)
        assert excinfo.value.rank == 0
        assert isinstance(excinfo.value.original, RetriesExhaustedError)


class TestResume:
    def test_completed_rounds_are_skipped_on_resume(self):
        """Pass a failed exchange's progress back in: rounds already marked
        complete never re-enter, so a permanent fault in them is moot."""

        def fn(comm):
            red = Redistributor(comm, ndims=1, dtype=np.float32, backend="p2p")
            red.setup(own=[Box((0,), (4,))], need=Box((0,), (4,)))
            data = np.arange(4, dtype=np.float32)
            out = np.zeros(4, dtype=np.float32)

            clean = red.exchange([data], out)
            assert np.array_equal(out, data)
            assert clean.completed  # every round recorded

            plan = FaultPlan(
                seed=0, nranks=1,
                events=(FaultSpec(kind="round", rank=0, count=1000),),
            )
            with fault_plan(plan, ReliabilityPolicy(max_retries=1, backoff_base_s=0.0001)):
                # A fresh exchange hits the permanent round fault...
                with pytest.raises(RetriesExhaustedError):
                    red.exchange([data], np.zeros(4, dtype=np.float32))
                # ...but resuming the completed progress skips every round.
                out2 = np.zeros(4, dtype=np.float32)
                resumed = red.exchange([data], out2, progress=clean)
                assert resumed is clean

        spmd(1, fn)

    def test_tag_epoch_pinned_across_resume(self):
        """Resume reuses the original epoch (stale first-attempt messages
        must still match); fresh exchanges advance it."""

        def fn(comm):
            red = Redistributor(comm, ndims=1, dtype=np.float32, backend="p2p")
            red.setup(own=[Box((0,), (2,))], need=Box((0,), (2,)))
            data = np.arange(2, dtype=np.float32)

            first = red.exchange([data], np.zeros(2, dtype=np.float32))
            second = red.exchange([data], np.zeros(2, dtype=np.float32))
            assert first.tag_epoch is not None
            assert second.tag_epoch is not None
            assert second.tag_epoch > first.tag_epoch

            epoch = first.tag_epoch
            red.exchange([data], np.zeros(2, dtype=np.float32), progress=first)
            assert first.tag_epoch == epoch  # pinned, not re-advanced

        spmd(1, fn)
