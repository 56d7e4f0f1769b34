"""Fault layer end-to-end: each fault kind injected through real exchanges.

Every test runs a tiny SPMD workload under a scripted ``FaultPlan`` via the
``fault_plan`` contextmanager, then asserts on the typed outcome and the
``FAULTS.stats`` counters.  Scripted specs use ``op=None`` plus tag filters
where possible so the assertions do not depend on exact op numbering.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, ReliabilityPolicy, fault_plan
from repro.faults.injector import FAULTS, clear_fault_plan, install_fault_plan
from repro.faults.policy import CORRUPTION_RAISE
from repro.mpisim import (
    CorruptionError,
    RankCrashError,
    RankFailure,
    RetriesExhaustedError,
    TimeoutError_,
)
from tests.conftest import spmd

PING_TAG = 7


def _ping(comm):
    """Rank 0 sends arange(16) to rank 1; rank 1 returns what it received."""
    if comm.rank == 0:
        comm.Send(np.arange(16, dtype=np.float64), dest=1, tag=PING_TAG)
        return None
    buf = np.zeros(16, dtype=np.float64)
    comm.Recv(buf, source=0, tag=PING_TAG)
    return buf


class TestLifecycle:
    def test_layer_inactive_by_default(self):
        clear_fault_plan()
        assert not FAULTS.active
        assert FAULTS.plan is None
        assert _ping_ok()

    def test_install_and_clear(self):
        plan = FaultPlan(seed=1, nranks=2)
        install_fault_plan(plan)
        assert FAULTS.active
        assert FAULTS.plan is plan
        clear_fault_plan()
        assert not FAULTS.active
        assert FAULTS.plan is None

    def test_contextmanager_restores_prior_state(self):
        clear_fault_plan()
        plan = FaultPlan(seed=2, nranks=2)
        with fault_plan(plan) as layer:
            assert layer is FAULTS
            assert FAULTS.active
            assert FAULTS.plan is plan
        assert not FAULTS.active
        assert FAULTS.plan is None
        # Stats outlive the plan for post-mortems.
        assert isinstance(FAULTS.stats.snapshot(), dict)


def _ping_ok() -> bool:
    results = spmd(2, _ping)
    return np.array_equal(results[1], np.arange(16, dtype=np.float64))


class TestDelay:
    def test_scripted_delay_stalls_but_delivers(self):
        plan = FaultPlan(
            seed=0, nranks=2,
            events=(FaultSpec(kind="delay", rank=0, delay_s=0.01),),
        )
        with fault_plan(plan):
            assert _ping_ok()
            assert FAULTS.stats.get("delays") >= 1


class TestDrop:
    def test_dropped_message_times_out_with_typed_error(self):
        """A silently dropped send surfaces on the *receiver* as a typed
        per-op deadline timeout, never a hang."""
        plan = FaultPlan(
            seed=0, nranks=2,
            events=(FaultSpec(kind="drop", rank=0, tag=PING_TAG),),
        )
        policy = ReliabilityPolicy(op_deadline_s=0.3)
        with fault_plan(plan, policy):
            with pytest.raises(RankFailure) as excinfo:
                spmd(2, _ping)
            assert excinfo.value.rank == 1
            assert isinstance(excinfo.value.original, TimeoutError_)
            assert FAULTS.stats.get("drops") == 1


class TestTransient:
    def test_transient_send_healed_by_retries(self):
        plan = FaultPlan(
            seed=0, nranks=2,
            events=(FaultSpec(kind="send", rank=0, count=2),),
        )
        with fault_plan(plan):  # default policy allows 3 retries
            assert _ping_ok()
            assert FAULTS.stats.get("transient_send") == 2
            assert FAULTS.stats.get("retries") == 2
            assert FAULTS.stats.get("retries_exhausted") == 0

    def test_transient_recv_healed_by_retries(self):
        plan = FaultPlan(
            seed=0, nranks=2,
            events=(FaultSpec(kind="recv", rank=1, count=1),),
        )
        with fault_plan(plan):
            assert _ping_ok()
            assert FAULTS.stats.get("transient_recv") == 1

    def test_retry_budget_exhaustion_is_typed(self):
        plan = FaultPlan(
            seed=0, nranks=2,
            events=(FaultSpec(kind="send", rank=0, count=10),),
        )
        policy = ReliabilityPolicy(max_retries=2, backoff_base_s=0.0001)
        with fault_plan(plan, policy):
            with pytest.raises(RankFailure) as excinfo:
                spmd(2, _ping)
            assert excinfo.value.rank == 0
            assert isinstance(excinfo.value.original, RetriesExhaustedError)
            assert FAULTS.stats.get("retries_exhausted") == 1


class TestCorruption:
    def test_corruption_healed_by_reretrieve(self):
        """CRC32 catches the flipped byte; the retained pristine payload
        heals the message transparently (default policy)."""
        plan = FaultPlan(
            seed=0, nranks=2,
            events=(FaultSpec(kind="corrupt", rank=0, tag=PING_TAG),),
        )
        with fault_plan(plan):
            assert _ping_ok()  # bitwise-correct despite the corruption
            assert FAULTS.stats.get("corruptions") >= 1
            assert FAULTS.stats.get("corruption_detected") >= 1
            assert FAULTS.stats.get("reretrieves") >= 1

    def test_corruption_raise_mode(self):
        plan = FaultPlan(
            seed=0, nranks=2,
            events=(FaultSpec(kind="corrupt", rank=0, tag=PING_TAG),),
        )
        policy = ReliabilityPolicy(corruption=CORRUPTION_RAISE)
        with fault_plan(plan, policy):
            with pytest.raises(RankFailure) as excinfo:
                spmd(2, _ping)
            assert isinstance(excinfo.value.original, CorruptionError)
            assert FAULTS.stats.get("reretrieves") == 0


class TestCrash:
    def test_rank_crash_aborts_peers_with_typed_error(self):
        plan = FaultPlan(seed=0, nranks=2, crash_rank=0, crash_at_op=0)
        with fault_plan(plan):
            with pytest.raises(RankFailure) as excinfo:
                spmd(2, _ping)
            assert excinfo.value.rank == 0
            assert isinstance(excinfo.value.original, RankCrashError)
            assert FAULTS.stats.get("crashes") >= 1
