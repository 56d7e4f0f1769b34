"""What set-up builds at the ``tiff_load`` and ``redist_rounds`` geometries.

Set-up keeps a rank's overlap rows as arrays and builds the rounds it
executes straight from them: one datatype per distinct geometry, none per
planned part.  These gates pin that count, the shape of every merged receive
lane (one stepped subarray) and that such a lane is copied under
``transport.turn`` when its copy program concatenates blocks — the guard
against rank threads trading the interpreter lock once per block.
"""

from __future__ import annotations

import collections
import threading

import numpy as np
import pytest

from repro.core import Box, Redistributor
from repro.core.engine import executed_rounds
from repro.mpisim import transport
from repro.mpisim.datatypes import StructType, SubarrayType
from repro.mpisim.transport import _TURN, takes_turns
from repro.volren.decompose import grid_boxes
from tests.conftest import every_lane, spmd, thread_only

NPROCS = 4


def round_robin(dims):
    """Single z-planes dealt round-robin to four ranks, each needing a
    quarter column: ``(own, need)`` per rank."""
    x, y, z = dims
    needs = grid_boxes(dims, (2, 2, 1))
    return [
        ([Box((0, 0, k), (x, y, 1)) for k in range(rank, z, NPROCS)], needs[rank])
        for rank in range(NPROCS)
    ]


def load(comm, dims, backend="alltoallw", transport=None, layout="separate"):
    """One cold round-robin load: set-up, then the first exchange, from
    planes allocated one by one or (``layout="one-array"``) views of one
    rank-local array."""
    own, need = round_robin(dims)[comm.rank]
    red = Redistributor(comm, ndims=3, dtype=np.float32, backend=backend, transport=transport)
    red.setup(own=own, need=need)
    if layout == "one-array":
        stack = np.empty((len(own), *own[0].np_shape()), np.float32)
        planes = list(stack)
        for plane, box in zip(planes, own):
            plane.fill(box.offset[2])
    else:
        planes = [np.full(box.np_shape(), box.offset[2], np.float32) for box in own]
    out = np.empty(need.np_shape(), np.float32)
    red.exchange(planes, out)
    assert (out == np.arange(dims[2], dtype=np.float32)[:, None, None]).all()
    return red


@thread_only
def test_tiff_load_set_up_builds_one_datatype_per_geometry(monkeypatch):
    """256 x 256 x 64 float32 round-robin: 16 planned rounds executed as one.
    Per rank, four send subarrays (one quadrant geometry per peer, shared by
    the 16 parts), four structs over the chunks and four stepped receive
    subarrays — not 68 subarrays and 8 structs."""
    built = []
    for cls in (SubarrayType, StructType):
        init = cls.__init__

        def counting(self, *args, __init=init, **kwargs):
            built.append((threading.get_ident(), type(self).__name__))
            __init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    idents = spmd(NPROCS, lambda comm: load(comm, (256, 256, 64)) and threading.get_ident())
    for ident in idents:
        mine = [name for who, name in built if who == ident]
        assert (mine.count("SubarrayType"), mine.count("StructType")) == (8, 4)


def lanes_and_turns(dims, backend, layout):
    """Per rank, after one zero-copy load: each merged receive lane is one
    stepped subarray, which would take the turn by its type alone; but the
    copy into it runs a struct's copy program, built before the copy on the
    first exchange too, and the program decides.  Returns whether the self
    lane's program takes the turn (a remote lane's agrees, where the
    executor shares one address space)."""
    def fn(comm):
        red = load(comm, dims, backend, "zerocopy", layout)
        (rnd,) = executed_rounds(red.mapping, backend, True)
        lanes = every_lane(rnd, "recv")
        assert [lane.peer for lane in lanes] == list(range(NPROCS))
        for lane in lanes:
            assert type(lane.datatype) is SubarrayType
            assert lane.datatype.steps == (dims[2] // NPROCS, 0, NPROCS)
            assert takes_turns(lane.datatype)
        verdict = rnd.self_send.datatype._programs[rnd.self_recv.datatype].turns
        for lane in rnd.sends:
            assert [p.turns for p in lane.datatype._programs.values()] in ([], [verdict])
        return verdict

    return spmd(NPROCS, fn)


GEOMETRIES = pytest.mark.parametrize(
    "dims", [(256, 256, 64), (128, 128, 128)], ids=["tiff_load", "redist_rounds"]
)


@GEOMETRIES
@pytest.mark.parametrize("backend", ["alltoallw", "p2p"])
def test_merged_receive_lanes_are_one_stepped_subarray_that_takes_turns(dims, backend):
    """Planes allocated one by one: the copy program concatenates them, and
    takes the turn."""
    assert lanes_and_turns(dims, backend, "separate") == [True] * NPROCS


@GEOMETRIES
@pytest.mark.parametrize("backend", ["alltoallw", "p2p"])
def test_planes_of_one_array_copy_in_one_call_without_the_turn(dims, backend):
    """Planes that are views of one rank-local array sit at one stride: the
    copy program moves each lane in one ``np.copyto`` and takes no turn."""
    assert lanes_and_turns(dims, backend, "one-array") == [False] * NPROCS


@thread_only
@pytest.mark.parametrize("backend", ["alltoallw", "p2p"])
def test_every_stepped_copy_holds_the_turn(monkeypatch, backend):
    """Under both protocols, remote lanes and the self copy alike: each
    stepped receive subarray is filled (zero-copy: straight from the
    sender's chunks) while this rank thread holds the turn."""
    held = []
    fill = SubarrayType._fill

    def recording(self, buffer, pieces):
        held.append((self.blocks, _TURN._is_owned()))
        fill(self, buffer, pieces)

    monkeypatch.setattr(SubarrayType, "_fill", recording)
    spmd(NPROCS, load, (64, 64, 64), backend, "zerocopy")
    assert len(held) == NPROCS * NPROCS  # every lane, self lanes included
    assert held == [(16, True)] * len(held)


class CountingTurn:
    """Stands in for ``transport._TURN``: a reentrant lock that counts its
    entries per rank thread."""

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self.entries: collections.Counter = collections.Counter()

    def __enter__(self) -> None:
        self.lock.acquire()
        self.entries[threading.get_ident()] += 1

    def __exit__(self, *exc) -> None:
        self.lock.release()


@thread_only
@pytest.mark.parametrize("backend", ["alltoallw", "p2p"])
@pytest.mark.parametrize("layout, enters", [("one-array", False), ("separate", True)])
def test_a_first_exchange_takes_the_turn_only_for_concatenating_lanes(
    monkeypatch, backend, layout, enters
):
    """A fresh mapping has no copy program yet; its first exchange builds
    each one before the copy and lets it decide: one-array planes (one
    ``np.copyto`` a lane) never enter ``transport.turn``, separate planes (one
    ``np.concatenate``) do, on every rank."""
    counting = CountingTurn()
    monkeypatch.setattr(transport, "_TURN", counting)

    def fn(comm):
        load(comm, (256, 256, 64), backend, "zerocopy", layout)
        return threading.get_ident()

    idents = spmd(NPROCS, fn)
    assert [counting.entries[ident] > 0 for ident in idents] == [enters] * NPROCS
