"""``ResilientRedistributor.resize``: voluntary reconfiguration.

Crash recovery and voluntary resize share one code path (install the
new communicator, then ``Redistributor.retarget``); these tests pin the
voluntary half: grow/shrink round-trips on both executors, bitwise
migration, epoch alignment for spawned joiners (required for the replay
agreement), and the crash-recovery loop still working *after* a
voluntary resize.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.box import Box
from repro.mpisim.errors import RankCrashError
from repro.mpisim.executor import run_spmd
from repro.resilience import CheckpointPolicy, ResilientRedistributor

SIDE = 24


def _slab(rank: int, n: int) -> Box:
    base, extra = divmod(SIDE, n)
    start = rank * base + min(rank, extra)
    rows = base + (1 if rank < extra else 0)
    return Box((0, start), (SIDE, rows))


def _field() -> np.ndarray:
    return np.arange(SIDE * SIDE, dtype=np.float32).reshape(SIDE, SIDE)


def _rows(box: Box) -> np.ndarray:
    return _field()[box.offset[1] : box.offset[1] + box.dims[1], :]


def _walk_epochs(rr, own, data, walk):
    """The epoch loop every rank runs, members and joiners alike.

    After epoch k the world resizes to ``walk[k - 1]``; epoch
    ``len(walk) + 1`` is the last.  Each epoch's ``gather_need`` and each
    migrated slab is checked bitwise.
    """
    sizes = []
    while True:
        out = rr.gather_need(data)
        assert np.array_equal(out, _rows(own)), (rr.epoch, rr.comm.rank)
        sizes.append(rr.comm.size)
        if rr.epoch > len(walk):
            return ("stayed", rr.comm.rank, rr.comm.size, rr.epoch, sizes)
        result = rr.resize(
            walk[rr.epoch - 1], out, _slab,
            worker=_joiner, worker_args=(walk, rr.epoch),
        )
        if not result.member:
            return ("left",)
        own = result.own
        data = result.data.reshape(own.np_shape()).copy()
        assert np.array_equal(data, _rows(own)), (rr.epoch, rr.comm.rank)
        rr.setup(own=[own], need=own)


def _joiner(rr, result, walk, epoch):
    """Spawned rank: verify migrated bytes, then enter the members' loop."""
    # Epoch alignment with the members.  Without it, the post-crash replay
    # agreement (min over members) would break.
    assert rr.epoch == epoch, (rr.epoch, epoch)
    data = result.data.reshape(result.own.np_shape()).copy()
    assert np.array_equal(data, _rows(result.own))
    rr.setup(own=[result.own], need=result.own)
    return _walk_epochs(rr, result.own, data, walk)


def _resize_worker(comm, walk):
    own = _slab(comm.rank, comm.size)
    rr = ResilientRedistributor(
        comm, ndims=2, dtype=np.float32, policy=CheckpointPolicy()
    )
    rr.setup(own=[own], need=own)
    return _walk_epochs(rr, own, _rows(own).copy(), walk)


@pytest.mark.parametrize("executor", ["thread", "process"])
@pytest.mark.parametrize("start,walk", [
    pytest.param(4, (2,), id="4-2"),
    pytest.param(2, (4,), id="2-4"),
    pytest.param(3, (3,), id="3-3"),
    # Grow one rank at a time, then shrink back: joiners spawned by one
    # resize take part in the next ones, and two of them leave.
    pytest.param(2, (3, 4, 3, 2), id="2-3-4-3-2"),
])
def test_resize_round_trips(executor, start, walk):
    results = run_spmd(
        start, _resize_worker, walk, executor=executor,
        spawn_slots=max(0, max(walk) - start), deadlock_timeout=20.0,
    )
    kept = min(start, *walk)
    assert [r[0] for r in results] == ["stayed"] * kept + ["left"] * (start - kept)
    for rank, r in enumerate(results[:kept]):
        assert r[1:] == (rank, walk[-1], len(walk) + 1, [start, *walk])


def _resize_then_crash(comm):
    """Shrink 4 -> 3 voluntarily, then lose a rank: recovery still works
    through the same (retarget-based) reconfiguration path."""
    own = _slab(comm.rank, comm.size)
    rr = ResilientRedistributor(
        comm, ndims=2, dtype=np.float32,
        policy=CheckpointPolicy(replicas=1, retain=2),
    )
    rr.setup(own=[own], need=own)
    out = rr.gather_need(_rows(own).copy())  # epoch 1
    result = rr.resize(3, out, _slab)
    if not result.member:
        return ("left",)
    rr.setup(own=[result.own], need=result.own)
    data = result.data.reshape(result.own.np_shape()).copy()
    out = rr.gather_need(data)  # epoch 2: checkpointed
    if rr.comm.rank == 2:
        raise RankCrashError("test: rank dies after voluntary resize")
    buffers = [
        np.ascontiguousarray(_rows(box)) for box in rr.own_boxes
    ]
    out = rr.gather_need(buffers)  # epoch 3: crash -> shrink -> replay
    assert np.array_equal(out, _rows(result.own))
    return ("survived", rr.recoveries, len(rr.adopted_boxes))


def test_crash_recovery_after_voluntary_resize():
    results = run_spmd(
        4, _resize_then_crash, resilient=True, deadlock_timeout=20.0
    )
    survivors = [r for r in results if isinstance(r, tuple) and r[0] == "survived"]
    assert len(survivors) == 2  # 4 -> 3 voluntary, then one death
    assert all(r[1] == 1 for r in survivors)
    assert sum(r[2] for r in survivors) == 1


def _stats_worker(comm):
    from repro.resilience.redistributor import RESILIENCE_STATS

    rr = ResilientRedistributor(comm, ndims=2, dtype=np.float32)
    own = _slab(comm.rank, comm.size)
    rr.setup(own=[own], need=own)
    out = rr.gather_need(_rows(own).copy())
    before = RESILIENCE_STATS.snapshot().get("voluntary_resizes", 0)
    result = rr.resize(2, out, _slab)
    after = RESILIENCE_STATS.snapshot().get("voluntary_resizes", 0)
    if not result.member:
        return None
    return after - before


def test_voluntary_resize_is_counted():
    results = run_spmd(3, _stats_worker)
    deltas = [r for r in results if r is not None]
    assert deltas and all(d >= 1 for d in deltas)
