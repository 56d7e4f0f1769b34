"""Pickle round-trips for every object that may cross the fork boundary.

The process executor ships control-plane objects to children (``FaultPlan``,
``ReliabilityPolicy`` inside ``_ProcCfg``) and back to the parent
(``SpanRecord`` lists, exceptions), and user workloads routinely close over
geometry/schedule objects.  Anything here breaking pickling would die
silently in a queue feeder thread, so lock the contract down explicitly.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import Box, compute_global_plan
from repro.faults import FaultPlan
from repro.faults.policy import ReliabilityPolicy
from repro.mpisim import FLOAT, SubarrayType
from repro.mpisim.shm import ShmTicket
from repro.obs.tracer import SpanRecord
from repro.resilience import CheckpointPolicy


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestGeometry:
    def test_box(self):
        box = Box((3, 5), (8, 16))
        back = roundtrip(box)
        assert back == box
        assert back.offset == (3, 5) and back.dims == (8, 16)

    def test_exchange_schedule(self):
        nprocs, side = 4, 64
        rows = side // nprocs
        plan = compute_global_plan(
            [[Box((0, r * rows), (side, rows))] for r in range(nprocs)],
            [Box((r * rows, 0), (rows, side)) for r in range(nprocs)],
            element_size=4,
        )
        for rows in plan.rank_plans():
            back = roundtrip(rows)
            assert (back.rank, back.nrounds) == (rows.rank, rows.nrounds)
            assert back.lanes("send") == rows.lanes("send")
            assert back.lanes("recv") == rows.lanes("recv")
            assert (back.partners, back.staged) == (rows.partners, rows.staged)

    def test_subarray_type_packs_identically(self):
        datatype = SubarrayType(FLOAT, (16, 16), (4, 8), (2, 3))
        back = roundtrip(datatype)
        buf = np.arange(256, dtype=np.float32).reshape(16, 16)
        np.testing.assert_array_equal(back.pack(buf), datatype.pack(buf))


class TestPolicies:
    def test_fault_plan(self):
        plan = FaultPlan(
            seed=42, nranks=4, ops=64, p_delay=0.25, p_drop=0.05,
            crash_rank=2, crash_at_op=10,
        )
        back = roundtrip(plan)
        assert back.seed == 42 and back.nranks == 4
        assert back.crash_rank == 2 and back.crash_at_op == 10
        assert back.p_delay == plan.p_delay

    def test_fault_plan_random(self):
        back = roundtrip(FaultPlan.random(seed=9, nranks=3, ops=32))
        assert back.nranks == 3

    def test_checkpoint_policy(self):
        policy = CheckpointPolicy(stride=2, replicas=2, retain=None)
        back = roundtrip(policy)
        assert back == policy

    def test_reliability_policy(self):
        policy = ReliabilityPolicy(max_retries=5, op_deadline_s=1.5)
        back = roundtrip(policy)
        assert back.max_retries == 5
        assert back.op_deadline_s == 1.5
        assert back.backoff_s(2) == policy.backoff_s(2)


class TestObservability:
    def test_span_record(self):
        span = SpanRecord(
            name="mpi.Alltoallw", rank=3, tid=140, start_us=10.5, dur_us=99.0,
            attrs={"bytes": 4096},
        )
        back = roundtrip(span)
        assert back == span
        assert back.category == "mpi"


class TestShmTicket:
    def test_ticket_carries_name_and_geometry_only(self):
        """A ticket is just (name, dtype, count): the receiver attaches by
        name, so no segment handle can cross the pickle boundary."""
        back = roundtrip(ShmTicket("ddr_test_1", "float32", 100))
        assert back.name == "ddr_test_1"
        assert back.dtype == "float32"
        assert back.count == 100
        assert back.nbytes == 400
        assert ShmTicket.__slots__ == ("name", "dtype", "count")


class TestExceptions:
    def test_rank_failure_chain(self):
        from repro.mpisim import RankFailure

        err = roundtrip(RankFailure(2, ValueError("boom")))
        assert err.rank == 2
        assert isinstance(err.original, ValueError)

    def test_process_failed_error(self):
        from repro.mpisim.errors import ProcessFailedError

        err = roundtrip(ProcessFailedError("rank 1 (pid 99) exited with code 3"))
        assert "pid 99" in str(err)


@pytest.mark.parametrize("protocol", [2, pickle.HIGHEST_PROTOCOL])
def test_box_all_protocols(protocol):
    box = Box((0, 1, 2), (3, 4, 5))
    assert pickle.loads(pickle.dumps(box, protocol)) == box
