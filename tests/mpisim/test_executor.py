"""SPMD executor: results, failure propagation, abort semantics."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.mpisim import (
    AbortError,
    CommunicatorError,
    DeadlineError,
    Fabric,
    RankFailure,
    SpmdHangError,
    run_spmd,
    world_communicators,
)
from repro.obs import TRACER, tracing
from tests.conftest import spmd, thread_only


class TestRunSpmd:
    def test_results_in_rank_order(self):
        assert spmd(4, lambda comm: comm.rank * 2) == [0, 2, 4, 6]

    def test_single_rank(self):
        assert spmd(1, lambda comm: comm.size) == [1]

    def test_args_kwargs_forwarded(self):
        def fn(comm, a, b=0):
            return a + b + comm.rank

        assert spmd(3, fn, 10, b=5) == [15, 16, 17]

    def test_zero_ranks_rejected(self):
        with pytest.raises(CommunicatorError):
            run_spmd(0, lambda comm: None)

    def test_exception_propagates_with_rank(self):
        def fn(comm):
            if comm.rank == 2:
                raise ValueError("boom")
            return comm.rank

        with pytest.raises(RankFailure) as excinfo:
            spmd(4, fn)
        assert excinfo.value.rank == 2
        assert isinstance(excinfo.value.original, ValueError)

    def test_failure_aborts_blocked_peers(self):
        """Rank 1 dies; rank 0 is blocked in Recv and must be released,
        not deadlock until the timeout."""

        def fn(comm):
            if comm.rank == 0:
                comm.Recv(np.zeros(1), source=1)  # never satisfied
            else:
                raise RuntimeError("dead rank")

        with pytest.raises(RankFailure) as excinfo:
            spmd(2, fn)
        assert excinfo.value.rank == 1

    def test_deadlock_detected_by_timeout(self):
        def fn(comm):
            comm.Recv(np.zeros(1), source=(comm.rank + 1) % comm.size)

        with pytest.raises(RankFailure) as excinfo:
            run_spmd(2, fn, deadlock_timeout=0.5)
        assert isinstance(excinfo.value.original, DeadlineError)

    def test_ranks_run_concurrently(self):
        """A rendezvous that requires both ranks in flight simultaneously."""

        def fn(comm):
            other = 1 - comm.rank
            comm.Send(np.array([float(comm.rank)]), dest=other)
            buf = np.zeros(1)
            comm.Recv(buf, source=other)
            return buf[0]

        assert spmd(2, fn) == [1.0, 0.0]

    def test_many_ranks(self):
        result = spmd(32, lambda comm: sum(comm.allgather(1)))
        assert result == [32] * 32


class TestJoinTimeout:
    """Regression: run_spmd used to join workers with no timeout, so a rank
    wedged *outside* the fabric (user compute that never returns) hung the
    driver forever — the fabric watchdog only covers blocking comm calls."""

    @thread_only
    def test_hang_outside_fabric_raises(self):
        release = threading.Event()

        def fn(comm):
            if comm.rank == 1:
                release.wait(30.0)  # wedged outside any fabric call
            return comm.rank

        try:
            with pytest.raises(SpmdHangError) as excinfo:
                run_spmd(2, fn, deadlock_timeout=0.2, join_timeout=0.4)
        finally:
            release.set()
        err = excinfo.value
        assert err.stuck_ranks == [1]
        assert "rank 1" in str(err)
        assert "enable tracing for span context" in str(err)

    @thread_only
    def test_hang_reports_open_trace_spans(self):
        release = threading.Event()

        def fn(comm):
            if comm.rank == 0:
                with TRACER.span("user.load"):
                    with TRACER.span("user.decode_tile"):
                        release.wait(30.0)
            return comm.rank

        try:
            with tracing(), pytest.raises(SpmdHangError) as excinfo:
                run_spmd(2, fn, deadlock_timeout=0.2, join_timeout=0.4)
        finally:
            release.set()
        message = str(excinfo.value)
        assert "rank 0 in user.load > user.decode_tile" in message

    def test_slow_but_progressing_run_is_not_flagged(self):
        """Total runtime far beyond join_timeout must be fine as long as
        ranks keep completing: the window renews on every join."""

        def fn(comm):
            # Ranks finish staggered, one per ~0.15s; each completion renews
            # the 0.4s window even though the whole run takes ~0.6s.
            import time

            time.sleep(0.15 * comm.rank)
            return comm.rank

        assert run_spmd(4, fn, deadlock_timeout=0.2, join_timeout=0.4) == [0, 1, 2, 3]

    def test_hang_releases_peers_blocked_in_fabric(self):
        """The driver aborts the fabric when it declares a hang, so ranks
        blocked on the wedged one are woken rather than left to their own
        watchdog."""
        release = threading.Event()

        def fn(comm):
            if comm.rank == 1:
                release.wait(30.0)
            else:
                comm.Recv(np.zeros(1), source=1)  # never satisfied

        try:
            with pytest.raises(SpmdHangError):
                run_spmd(2, fn, deadlock_timeout=10.0, join_timeout=0.4)
        finally:
            release.set()


class TestWorldCommunicators:
    def test_share_one_fabric(self):
        comms = world_communicators(3)
        assert all(c.fabric is comms[0].fabric for c in comms)
        assert [c.rank for c in comms] == [0, 1, 2]
        assert all(c.size == 3 for c in comms)

    def test_fabric_abort_flag(self):
        fabric = Fabric(2)
        assert fabric.aborted is None
        err = ValueError("x")
        fabric.abort(err)
        assert fabric.aborted is err


class TestAbortPropagation:
    """Regression: when one rank dies, *every* blocked peer must be released
    with AbortError — including ranks parked deep inside a collective —
    and run_spmd must surface the originating exception, not a peer's
    secondary abort."""

    @thread_only
    def test_abort_reaches_recv_and_collective_parked_ranks(self):
        from repro.mpisim import FLOAT

        aborted = []

        def fn(comm):
            rank = comm.rank
            if rank == 0:
                time.sleep(0.2)  # let the peers park first
                raise RuntimeError("originating failure")
            try:
                if rank == 1:
                    comm.Recv(np.zeros(1), source=0, tag=42)  # never sent
                else:
                    # Parked inside Alltoallw waiting on lanes from rank 0,
                    # which never calls the collective at all.
                    types = [FLOAT.Create_contiguous(1) for _ in range(comm.size)]
                    comm.Alltoallw(
                        np.zeros(comm.size, dtype=np.float32), types,
                        np.zeros(comm.size, dtype=np.float32), list(types),
                    )
            except AbortError:
                aborted.append(rank)
                raise

        with pytest.raises(RankFailure) as excinfo:
            spmd(4, fn)
        # The *original* failure wins, not the secondary AbortErrors.
        assert excinfo.value.rank == 0
        assert isinstance(excinfo.value.original, RuntimeError)
        assert "originating failure" in str(excinfo.value.original)
        # Every parked peer was released promptly via AbortError.
        assert sorted(aborted) == [1, 2, 3]


class TestHangReportFaultState:
    def test_hang_report_includes_fault_layer_diagnostics(self):
        """With a fault plan installed, SpmdHangError names the plan and
        per-rank op counters so a wedged chaos run is debuggable."""
        from repro.faults import FaultPlan, fault_plan

        release = threading.Event()

        def fn(comm):
            if comm.rank == 1:
                release.wait(30.0)  # wedged outside any fabric call
            return comm.rank

        plan = FaultPlan(seed=11, nranks=2, p_delay=0.0)
        try:
            with fault_plan(plan):
                with pytest.raises(SpmdHangError) as excinfo:
                    run_spmd(2, fn, deadlock_timeout=0.2, join_timeout=0.4)
        finally:
            release.set()
        message = str(excinfo.value)
        assert "fault layer:" in message
        assert "seed=11" in message

    def test_hang_report_omits_fault_state_when_inactive(self):
        release = threading.Event()

        def fn(comm):
            if comm.rank == 1:
                release.wait(30.0)
            return comm.rank

        try:
            with pytest.raises(SpmdHangError) as excinfo:
                run_spmd(2, fn, deadlock_timeout=0.2, join_timeout=0.4)
        finally:
            release.set()
        assert "fault layer:" not in str(excinfo.value)
