"""ULFM primitives: revoke, fault-aware agreement, shrink re-ranking."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.mpisim import (
    TRANSPORT_PACKED,
    TRANSPORT_ZEROCOPY,
    CommunicatorError,
    ProcessFailedError,
    RankCrashError,
    RevokedError,
    run_spmd,
)
from tests.conftest import spmd

TRANSPORTS = [TRANSPORT_ZEROCOPY, TRANSPORT_PACKED]


def wait_for_deaths(comm, count, timeout=10.0):
    """Spin until the liveness table records ``count`` crashed ranks."""
    deadline = time.monotonic() + timeout
    while len(comm.fabric.dead_ranks()) < count:
        if time.monotonic() > deadline:
            raise AssertionError("victims never recorded as dead")
        time.sleep(0.005)


class TestRevoke:
    @pytest.mark.parametrize("mode", TRANSPORTS)
    def test_pending_and_future_ops_raise_typed(self, mode):
        def fn(comm):
            if comm.rank == 0:
                time.sleep(0.05)  # let peers block in the barrier first
                comm.revoke()
            with pytest.raises(RevokedError):
                comm.Barrier()
            with pytest.raises(RevokedError):
                comm.Send(np.zeros(1), (comm.rank + 1) % comm.size, transport=mode)
            return True

        assert all(spmd(3, fn))

    def test_revoke_cascades_to_derived_comms(self):
        def fn(comm):
            child = comm.Split(0, key=comm.rank)
            child.Barrier()
            if comm.rank == 0:
                comm.revoke()
            wait = time.monotonic() + 5.0
            while not child.revoked and time.monotonic() < wait:
                time.sleep(0.005)
            with pytest.raises(RevokedError):
                child.Barrier()
            return True

        assert all(spmd(3, fn))

    def test_agree_completes_on_revoked_comm(self):
        def fn(comm):
            comm.revoke()
            return comm.agree(comm.rank, combine=max)

        assert spmd(3, fn) == [2, 2, 2]


class TestAgree:
    def test_folds_all_live_contributions(self):
        def fn(comm):
            return comm.agree({comm.rank}, combine=lambda a, b: a | b)

        assert spmd(4, fn) == [{0, 1, 2, 3}] * 4

    def test_crashed_member_unblocks_survivors(self):
        def fn(comm):
            if comm.rank == 3:
                raise RankCrashError("scripted death before contributing")
            return comm.agree({comm.rank}, combine=lambda a, b: a | b)

        results = run_spmd(4, fn, resilient=True, deadlock_timeout=20.0)
        assert isinstance(results[3], RankCrashError)
        assert results[:3] == [{0, 1, 2}] * 3

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_returned_member_retires(self, executor):
        """A resilient rank that returns retires, so an agreement among the
        rest completes at once instead of waiting out the watchdog."""
        if executor == "process" and not hasattr(os, "fork"):
            pytest.skip("process executor needs fork")

        def fn(comm):
            if comm.rank == 2:
                return None
            started = time.monotonic()
            return comm.agree(True), time.monotonic() - started

        results = run_spmd(
            3, fn, resilient=True, deadlock_timeout=3.0, executor=executor
        )
        assert results[2] is None
        for agreed, seconds in results[:2]:
            assert agreed is True
            assert seconds < 1.0


class TestShrink:
    @pytest.mark.parametrize("mode", TRANSPORTS)
    def test_dense_renumbering_preserves_order(self, mode):
        def fn(comm):
            if comm.rank in (1, 3):
                raise RankCrashError("scripted death")
            new = comm.shrink(dead=frozenset({1, 3}))
            assert new.size == 3
            assert new.world_ranks == (0, 2, 4)
            assert new.world_rank_of(new.rank) == comm.rank
            # the shrunken comm is fully operational under this transport
            assert new.allgather(new.rank) == [0, 1, 2]
            left = np.zeros(1)
            new.Send(np.array([float(new.rank)]), (new.rank + 1) % new.size, transport=mode)
            new.Recv(left, source=(new.rank - 1) % new.size)
            assert left[0] == float((new.rank - 1) % new.size)
            return new.rank

        results = run_spmd(5, fn, resilient=True, deadlock_timeout=20.0)
        survivors = [r for r in results if not isinstance(r, RankCrashError)]
        assert survivors == [0, 1, 2]

    def test_internal_agreement_finds_the_dead(self):
        def fn(comm):
            if comm.rank == 2:
                raise RankCrashError("scripted death")
            wait_for_deaths(comm, 1)
            new = comm.shrink()
            return new.rank, new.world_ranks

        results = run_spmd(4, fn, resilient=True, deadlock_timeout=20.0)
        survivors = [r for r in results if not isinstance(r, RankCrashError)]
        assert [w for _, w in survivors] == [(0, 1, 3)] * 3
        assert [r for r, _ in survivors] == [0, 1, 2]

    def test_agreed_dead_rank_cannot_join(self):
        def fn(comm):
            if comm.rank == 1:
                with pytest.raises(CommunicatorError, match="failed set"):
                    comm.shrink(dead=frozenset({1}))
                return "refused"
            return comm.shrink(dead=frozenset({1})).size

        assert spmd(3, fn) == [2, "refused", 2]

    def test_ops_on_old_comm_fail_typed_after_death(self):
        def fn(comm):
            if comm.rank == 1:
                raise RankCrashError("scripted death")
            wait_for_deaths(comm, 1)
            with pytest.raises(ProcessFailedError, match="never respond"):
                comm.Recv(np.empty(1), source=1)
            return True

        results = run_spmd(3, fn, resilient=True, deadlock_timeout=20.0)
        assert results[0] is True and results[2] is True
