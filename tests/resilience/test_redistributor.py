"""Crash recovery in ResilientRedistributor: replay, adoption, data loss."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import Box
from repro.faults import FaultPlan, ReliabilityPolicy, fault_plan
from repro.mpisim import RankCrashError, run_spmd
from repro.mpisim.errors import DeadlineError, MpiSimError, ProcessFailedError, RevokedError
from repro.resilience import (
    CheckpointPolicy,
    DataLossError,
    ReconfigurationError,
    ResilientRedistributor,
    recoverable,
)

NX, NY = 16, 8
NPROCS = 4
BACKENDS = ["alltoallw", "p2p", "auto"]
POLICY = ReliabilityPolicy(op_deadline_s=5.0)


def own_slab(rank):
    return Box((0, rank * 2), (NX, 2))


def need_column(rank):
    return Box((rank * 4, 0), (4, NY))


def reference():
    return np.arange(NX * NY, dtype=np.float64).reshape(NY, NX)


def extract(field, box):
    c0, r0 = box.offset
    w, h = box.dims
    return np.ascontiguousarray(field[r0 : r0 + h, c0 : c0 + w])


def exchange_worker(comm, backend, generations=3):
    """Three exchange generations, each verified against the reference.

    Regenerates data for every current own box (adopted boxes included),
    so a recovered run must be bitwise-equal unless a stale restore
    degraded it.
    """
    red = ResilientRedistributor(comm, ndims=2, dtype=np.float64, backend=backend)
    red.setup([own_slab(comm.rank)], need_column(comm.rank))
    ref = reference()
    for generation in range(1, generations + 1):
        buffers = [extract(ref, box) * generation for box in red.own_boxes]
        out = red.gather_need(buffers, fill=-1.0)
        if not red.stale_boxes:
            assert np.array_equal(out, extract(ref, need_column(comm.rank)) * generation)
    return red.recoveries, red.degraded, list(red.adopted_boxes)


def _comm(members, dead):
    """Just what ``recoverable`` reads of a communicator."""
    return SimpleNamespace(
        world_ranks=tuple(members),
        fabric=SimpleNamespace(dead_ranks=lambda: frozenset(dead)),
    )


@pytest.mark.parametrize(
    "exc, dead, expected",
    [
        (RankCrashError("killed"), {1}, False),  # this rank is the victim
        (DataLossError("lost"), {1}, False),
        (ReconfigurationError("too few"), {1}, False),
        (RevokedError("revoked"), (), True),
        (ProcessFailedError("peer gone"), {1}, True),
        (DeadlineError("slow"), {1}, True),  # a corpse behind the deadline
        (DeadlineError("slow"), (), False),  # an ordinary reliability failure
        (DeadlineError("slow"), {7}, False),  # the dead rank is not a member
        (MpiSimError("other"), {1}, False),
    ],
)
def test_recoverable(exc, dead, expected):
    assert recoverable(exc, _comm([0, 1, 2], dead)) is expected


class TestCrashMidExchange:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_recovery_is_bitwise_exact(self, backend):
        plan = FaultPlan(seed=0, nranks=NPROCS, crash_rank=2, crash_at_op=8)
        with fault_plan(plan, POLICY):
            results = run_spmd(
                NPROCS, exchange_worker, backend, resilient=True, deadlock_timeout=10.0
            )
        assert isinstance(results[2], RankCrashError)
        survivors = [r for r in results if not isinstance(r, RankCrashError)]
        assert len(survivors) == 3
        assert all(recoveries == 1 for recoveries, _, _ in survivors)
        # exact-epoch checkpoints existed for the replay: nothing degraded
        assert not any(degraded for _, degraded, _ in survivors)
        # exactly one survivor adopted the victim's slab
        adopted = [boxes for _, _, boxes in survivors if boxes]
        assert adopted == [[own_slab(2)]]


class TestCrashBetweenEpochs:
    def test_stale_restore_degrades_but_stays_correct(self):
        """A victim that never deposited the pending epoch forces a stale
        restore; with static per-epoch data the output is still correct,
        and the degradation is reported, not hidden."""

        def fn(comm):
            red = ResilientRedistributor(comm, ndims=2, dtype=np.float64)
            red.setup([own_slab(comm.rank)], need_column(comm.rank))
            ref = reference()
            out = red.gather_need([extract(ref, own_slab(comm.rank))], fill=-1.0)
            assert np.array_equal(out, extract(ref, need_column(comm.rank)))
            if comm.rank == 1:
                raise RankCrashError("scripted death between epochs")
            buffers = [extract(ref, box) for box in red.own_boxes]
            out = red.gather_need(buffers, fill=-1.0)
            # the victim's slab replayed from its previous-epoch deposit;
            # the data is static, so the values are still exact
            assert np.array_equal(out, extract(ref, need_column(comm.rank)))
            return red.degraded, list(red.stale_boxes)

        results = run_spmd(NPROCS, fn, resilient=True, deadlock_timeout=10.0)
        survivors = [r for r in results if not isinstance(r, RankCrashError)]
        # only the adopter performed the stale restore, and it reports it
        assert any(degraded for degraded, _ in survivors)
        assert [stale for _, stale in survivors if stale] == [[own_slab(1)]]


class TestDataLoss:
    def test_owner_and_buddy_both_dead_raises_typed(self):
        """With stride-1 single-replica buddies, killing a rank *and* its
        buddy destroys every copy of the first victim's slab."""

        def fn(comm):
            red = ResilientRedistributor(
                comm,
                ndims=2,
                dtype=np.float64,
                policy=CheckpointPolicy(stride=1, replicas=1),
            )
            red.setup([own_slab(comm.rank)], need_column(comm.rank))
            ref = reference()
            red.gather_need([extract(ref, own_slab(comm.rank))], fill=-1.0)
            if comm.rank in (1, 2):
                raise RankCrashError("scripted death")
            try:
                red.gather_need([extract(ref, b) for b in red.own_boxes], fill=-1.0)
            except DataLossError as exc:
                return list(exc.lost_boxes)
            return None

        results = run_spmd(NPROCS, fn, resilient=True, deadlock_timeout=10.0)
        survivors = [r for r in results if not isinstance(r, RankCrashError)]
        # rank 1's slab: holders {1, 2} both dead -> unrecoverable, named.
        # rank 2's slab: buddy 3 survived -> adopted, not lost.
        assert survivors == [[own_slab(1)], [own_slab(1)]]

    def test_setup_crash_raises_typed(self):
        """A death before any checkpoint exists cannot be recovered."""
        plan = FaultPlan(seed=0, nranks=NPROCS, crash_rank=1, crash_at_op=1)
        with fault_plan(plan, POLICY):

            def fn(comm):
                red = ResilientRedistributor(comm, ndims=2, dtype=np.float64)
                try:
                    red.setup([own_slab(comm.rank)], need_column(comm.rank))
                except DataLossError:
                    return "typed"
                return "ok"

            results = run_spmd(
                NPROCS, fn, resilient=True, deadlock_timeout=10.0
            )
        survivors = [r for r in results if not isinstance(r, RankCrashError)]
        assert survivors and all(r == "typed" for r in survivors)


class TestStats:
    def test_stats_expose_recovery_counters(self):
        def fn(comm):
            red = ResilientRedistributor(comm, ndims=2, dtype=np.float64)
            red.setup([own_slab(comm.rank)], need_column(comm.rank))
            ref = reference()
            red.gather_need([extract(ref, own_slab(comm.rank))], fill=-1.0)
            return red.stats()

        results = run_spmd(NPROCS, fn, deadlock_timeout=10.0)
        for stats in results:
            assert stats["recoveries"] == 0
            assert stats["epoch"] == 1
