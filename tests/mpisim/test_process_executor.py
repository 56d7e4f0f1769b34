"""Process executor: real-OS-process ranks, shm transport, failure modes."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.mpisim import (
    CommunicatorError,
    RankCrashError,
    RankFailure,
    SpmdHangError,
    TRANSPORT_PACKED,
    TRANSPORT_SHM,
    TRANSPORT_ZEROCOPY,
    default_executor,
    run_spmd,
)
from repro.mpisim.errors import ProcessFailedError

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="process executor needs fork"
)


def pspmd(nprocs, fn, *args, **kwargs):
    kwargs.setdefault("deadlock_timeout", 20.0)
    kwargs.setdefault("executor", "process")
    return run_spmd(nprocs, fn, *args, **kwargs)


class TestBasics:
    def test_results_in_rank_order(self):
        assert pspmd(4, lambda comm: comm.rank * 2) == [0, 2, 4, 6]

    def test_ranks_are_separate_processes(self):
        pids = pspmd(3, lambda comm: os.getpid())
        assert len(set(pids)) == 3
        assert os.getpid() not in pids

    def test_args_kwargs_forwarded(self):
        def fn(comm, a, b=0):
            return a + b + comm.rank

        assert pspmd(3, fn, 10, b=5) == [15, 16, 17]

    def test_point_to_point(self):
        def fn(comm):
            other = 1 - comm.rank
            comm.Send(np.array([float(comm.rank)], dtype=np.float64), dest=other)
            buf = np.zeros(1)
            comm.Recv(buf, source=other)
            return buf[0]

        assert pspmd(2, fn) == [1.0, 0.0]

    def test_collectives(self):
        def fn(comm):
            total = sum(comm.allgather(comm.rank + 1))
            root_val = comm.bcast(comm.rank * 10 if comm.rank == 0 else None, root=0)
            return (total, root_val)

        assert pspmd(4, fn) == [(10, 0)] * 4

    def test_alltoallw_large_payload(self):
        """Above SHM_MIN_BYTES the lanes ride shared-memory tickets."""
        from repro.mpisim import FLOAT, SubarrayType

        n = 256

        def fn(comm):
            size = comm.size
            send = np.full((n, n), comm.rank, dtype=np.float32)
            recv = np.zeros((n, n), dtype=np.float32)
            rows = n // size
            stypes = [
                SubarrayType(FLOAT, (n, n), (rows, n), (d * rows, 0))
                for d in range(size)
            ]
            rtypes = [
                SubarrayType(FLOAT, (n, n), (rows, n), (s * rows, 0))
                for s in range(size)
            ]
            comm.Alltoallw(send, stypes, recv, rtypes)
            expect = np.repeat(np.arange(size, dtype=np.float32), rows)[:, None]
            return bool((recv == expect).all())

        assert all(pspmd(4, fn))

    def test_redistributor_end_to_end(self):
        from repro.core import Box, Redistributor

        def fn(comm):
            rank, size = comm.rank, comm.size
            n = 128
            rows = n // size
            red = Redistributor(comm, ndims=2, dtype=np.float32)
            red.setup(
                own=[Box((0, rank * rows), (n, rows))],
                need=Box((0, (size - 1 - rank) * rows), (n, rows)),
            )
            data = np.full((rows, n), rank, dtype=np.float32)
            out = np.empty((rows, n), dtype=np.float32)
            red.exchange([data], out)
            return bool((out == size - 1 - rank).all())

        assert all(pspmd(4, fn))


class TestTransports:
    def test_zerocopy_degrades_to_shm(self):
        """Live-buffer rendezvous cannot cross address spaces."""

        def fn(comm):
            return comm.resolve_transport(TRANSPORT_ZEROCOPY)

        assert pspmd(2, fn) == [TRANSPORT_SHM, TRANSPORT_SHM]

    def test_packed_stays_packed(self):
        def fn(comm):
            return comm.resolve_transport(TRANSPORT_PACKED)

        assert pspmd(2, fn) == [TRANSPORT_PACKED, TRANSPORT_PACKED]

    def test_no_shm_leak_after_clean_run(self):
        from repro.mpisim import FLOAT, SubarrayType

        def fn(comm):
            n = 256
            send = np.zeros((n, n), dtype=np.float32)
            recv = np.zeros((n, n), dtype=np.float32)
            rows = n // comm.size
            types = [
                SubarrayType(FLOAT, (n, n), (rows, n), (d * rows, 0))
                for d in range(comm.size)
            ]
            comm.Alltoallw(send, types, recv, list(types))
            return True

        before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
        assert all(pspmd(2, fn))
        after = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
        leaked = {n for n in after - before if n.startswith("ddr")}
        assert not leaked, f"leaked shm segments: {leaked}"


class TestFailures:
    def test_exception_propagates_with_rank(self):
        def fn(comm):
            if comm.rank == 2:
                raise ValueError("boom")
            return comm.rank

        with pytest.raises(RankFailure) as excinfo:
            pspmd(4, fn)
        assert excinfo.value.rank == 2
        assert isinstance(excinfo.value.original, ValueError)

    def test_failure_aborts_blocked_peers(self):
        def fn(comm):
            if comm.rank == 0:
                comm.Recv(np.zeros(1), source=1)  # never satisfied
            else:
                raise RuntimeError("dead rank")

        with pytest.raises(RankFailure) as excinfo:
            pspmd(2, fn)
        assert excinfo.value.rank == 1

    def test_resilient_crash_keeps_survivors(self):
        def fn(comm):
            if comm.rank == 2:
                raise RankCrashError("scripted death")
            return comm.rank

        results = pspmd(4, fn, resilient=True)
        assert isinstance(results[2], RankCrashError)
        assert [results[r] for r in (0, 1, 3)] == [0, 1, 3]

    def test_hard_death_reports_pid_and_exitcode(self):
        """os._exit skips the result envelope entirely: the parent must
        synthesize a typed ProcessFailedError, not hang."""

        def fn(comm):
            if comm.rank == 1:
                os._exit(3)
            time.sleep(0.2)
            return comm.rank

        with pytest.raises(RankFailure) as excinfo:
            pspmd(2, fn)
        original = excinfo.value.original
        assert isinstance(original, ProcessFailedError)
        assert "rank 1" in str(original)
        assert "code 3" in str(original)
        assert "pid" in str(original)

    def test_resilient_hard_death_fills_slot(self):
        def fn(comm):
            if comm.rank == 1:
                os._exit(9)
            time.sleep(0.2)
            return comm.rank

        results = pspmd(3, fn, resilient=True)
        assert isinstance(results[1], ProcessFailedError)
        assert results[0] == 0 and results[2] == 2

    def test_hang_reports_executor_and_pids(self):
        def fn(comm):
            if comm.rank == 1:
                time.sleep(30.0)  # wedged outside any fabric call
            return comm.rank

        start = time.monotonic()
        with pytest.raises(SpmdHangError) as excinfo:
            pspmd(2, fn, deadlock_timeout=0.2, join_timeout=1.0)
        assert time.monotonic() - start < 20.0  # terminated, not slept out
        err = excinfo.value
        assert err.stuck_ranks == [1]
        assert err.executor == "process"
        assert err.pids[1] is not None
        assert "process executor" in str(err)
        assert f"pid {err.pids[1]}" in str(err)


class TestSelection:
    def test_invalid_executor_rejected(self):
        with pytest.raises(CommunicatorError):
            run_spmd(2, lambda comm: comm.rank, executor="fiber")

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("DDR_EXECUTOR", "process")
        assert default_executor() == "process"
        pids = run_spmd(2, lambda comm: os.getpid(), deadlock_timeout=20.0)
        assert os.getpid() not in pids

    def test_explicit_thread_overrides_env(self, monkeypatch):
        monkeypatch.setenv("DDR_EXECUTOR", "process")
        pids = run_spmd(
            2, lambda comm: os.getpid(), executor="thread", deadlock_timeout=20.0
        )
        assert pids == [os.getpid()] * 2


class TestObservability:
    def test_trace_spans_merge_across_processes(self):
        from repro.obs import tracing

        def fn(comm):
            from repro.obs import TRACER

            with TRACER.span("user.work"):
                comm.Barrier()
            return comm.rank

        with tracing() as tracer:
            pspmd(3, fn)
        records = tracer.records()
        user = [r for r in records if r.name == "user.work"]
        assert sorted(r.rank for r in user) == [0, 1, 2]

    def test_fault_stats_merge(self):
        from repro.faults import FaultPlan, fault_plan
        from repro.faults.injector import FAULTS

        def fn(comm):
            other = 1 - comm.rank
            buf = np.zeros(4)
            for _ in range(5):
                comm.Send(np.full(4, float(comm.rank)), other)
                comm.Recv(buf, source=other)
            return True

        plan = FaultPlan(seed=7, nranks=2, p_delay=0.9, delay_max_s=0.001)
        with fault_plan(plan):
            assert all(pspmd(2, fn))
            stats = FAULTS.stats.snapshot()
        assert stats.get("delays", 0) > 0
