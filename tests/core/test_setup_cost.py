"""What set-up builds at the ``tiff_load`` and ``redist_rounds`` geometries.

Set-up keeps a rank's overlap rows as arrays and builds the rounds it
executes straight from them: one datatype per distinct geometry, none per
planned part.  These gates pin that count, the shape of every merged receive
lane (one stepped subarray) and that such a lane is still copied under
``transport.turn`` — the guard against rank threads trading the interpreter
lock once per block.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import Box, Redistributor
from repro.core.engine import executed_rounds
from repro.mpisim.datatypes import StructType, SubarrayType
from repro.mpisim.transport import _TURN, turn
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


def load(comm, dims, backend="alltoallw", transport=None):
    """One cold round-robin load: set-up, then the first exchange."""
    own, need = round_robin(dims)[comm.rank]
    red = Redistributor(comm, ndims=3, dtype=np.float32, backend=backend, transport=transport)
    red.setup(own=own, need=need)
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


@pytest.mark.parametrize(
    "dims", [(256, 256, 64), (128, 128, 128)], ids=["tiff_load", "redist_rounds"]
)
@pytest.mark.parametrize("backend", ["alltoallw", "p2p"])
def test_merged_receive_lanes_are_one_stepped_subarray_that_takes_turns(dims, backend):
    def fn(comm):
        red = load(comm, dims, backend)
        (rnd,) = executed_rounds(red.mapping, backend, True)
        lanes = every_lane(rnd, "recv")
        assert [lane.peer for lane in lanes] == list(range(NPROCS))
        for lane in lanes:
            assert type(lane.datatype) is SubarrayType
            assert lane.datatype.steps == (dims[2] // NPROCS, 0, NPROCS)
            assert turn(lane.datatype) is _TURN
        return True

    assert all(spmd(NPROCS, fn))


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
