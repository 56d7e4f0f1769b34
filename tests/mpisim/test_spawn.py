"""``Communicator.spawn``: growing a running world (MPI_Comm_spawn + merge).

Spawn is the primitive under ``Redistributor.resize`` grows; these tests
pin its contract directly: collective call, dense rank append, shared
lineage (the merged communicator runs ordinary collectives), and repeated
growth.  Spawned ranks' return values are discarded by the driver, so
every assertion about them travels through union collectives.  CI repeats
this module under ``DDR_EXECUTOR=process``, where spawned ranks are
forked into reserve queue slots (``spawn_slots``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.mpisim import TRANSPORT_SHM
from repro.mpisim.errors import CommunicatorError
from tests.conftest import spmd, thread_only


def _child(comm, marker):
    comm.allgather((comm.rank, "child", marker))
    return None  # discarded: spawned ranks have no driver result slot


def _parent(comm, count, marker):
    union = comm.spawn(count, _child, marker)
    gathered = union.allgather((union.rank, "parent", marker))
    return {
        "rank": union.rank,
        "size": union.size,
        "world_ranks": tuple(union.world_ranks),
        "gathered": tuple(gathered),
    }


def test_spawn_merges_and_appends_densely():
    results = spmd(3, _parent, 2, "m", spawn_slots=2)
    assert all(r["size"] == 5 for r in results)
    # Existing members keep their rank order; spawned ranks are appended.
    assert [r["rank"] for r in results] == [0, 1, 2]
    roles = [role for _, role, _ in results[0]["gathered"]]
    assert roles == ["parent"] * 3 + ["child"] * 2
    assert [rank for rank, _, _ in results[0]["gathered"]] == list(range(5))
    # All members agree on the merged world.
    assert len({r["world_ranks"] for r in results}) == 1
    assert len(results[0]["world_ranks"]) == 5


def _first_child(comm, marker):
    # A spawned rank is a full member: it joins the next spawn collective.
    union = comm.spawn(1, _child, marker)
    union.allgather((union.rank, "first-child", marker))
    return None


def _double_parent(comm, marker):
    union1 = comm.spawn(1, _first_child, marker)
    union2 = union1.spawn(1, _child, marker)
    gathered = union2.allgather((union2.rank, "parent", marker))
    return {"size": union2.size, "n": len(gathered)}


def test_spawn_twice_keeps_growing():
    results = spmd(2, _double_parent, "g", spawn_slots=2)
    assert all(r["size"] == 4 and r["n"] == 4 for r in results)


def _bad_count(comm):
    try:
        comm.spawn(0, _child, "x")
    except CommunicatorError:
        return "typed"
    return "no error"


def test_spawn_count_validation():
    assert spmd(2, _bad_count) == ["typed", "typed"]


def _bcast_from_spawned(comm, marker):
    union = comm.spawn(1, _spawned_root_sender, marker)
    value = union.bcast(None, root=union.size - 1)
    return value


def _spawned_root_sender(comm, marker):
    # The freshly spawned rank is the highest rank; broadcast from it.
    comm.bcast((marker, comm.rank), root=comm.size - 1)
    return None


def test_collectives_root_at_spawned_rank():
    results = spmd(3, _bcast_from_spawned, "payload", spawn_slots=1)
    assert results == [("payload", 3)] * 3


@pytest.mark.parametrize("count", [1, 3])
def test_spawn_counts(count):
    results = spmd(2, _parent, count, "c", spawn_slots=3)
    assert all(r["size"] == 2 + count for r in results)


@thread_only
def test_driver_joins_spawned_ranks_before_teardown():
    """A spawned rank may still be draining an shm lane when every original
    rank has returned: ``run_spmd`` must join it before it unlinks the
    staging pool and before it folds ``spawn_failures`` into the result."""
    drained = []

    def late_receiver(comm):
        time.sleep(0.5)  # the originals are long gone by now
        buf = np.zeros(4096, dtype=np.float32)
        comm.Recv(buf, source=0, tag=1)
        drained.append(bool((buf == 7).all()))

    def fn(comm):
        union = comm.spawn(1, late_receiver)
        if union.rank == 0:
            # shm: eager, the segment owned by the fabric's pool
            union.Send(
                np.full(4096, 7, dtype=np.float32), union.size - 1, tag=1,
                transport=TRANSPORT_SHM,
            )
        return True

    assert spmd(2, fn) == [True, True]
    assert drained == [True]
