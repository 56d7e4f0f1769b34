"""What set-up builds at the ``tiff_load`` and ``redist_rounds`` geometries.

Set-up keeps a rank's overlap rows as arrays and builds the rounds it
executes straight from them: one datatype per distinct geometry, none per
planned part.  These gates pin that count, the shape of every merged receive
lane (one stepped subarray) and how its copy program fills it: planes of one
array in one strided view (one ``np.copyto``), separate planes from a block
list (one ``np.concatenate``).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import Box, Redistributor
from repro.core.engine import executed_rounds
from repro.mpisim.datatypes import StructType, SubarrayType
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


def fill_kind(program) -> str:
    """How a copy program fills a stepped receive subarray (one member):
    from one strided ``"view"`` or from a ``"blocks"`` list."""
    ((_, _, _, source),) = program.fills
    return "blocks" if type(source) is list else "view"


def merged_lanes(dims, backend, layout):
    """Per rank, after one zero-copy load: each merged receive lane is one
    stepped subarray, and the copy into it runs a struct's copy program,
    built on the first exchange.  Returns how the self lane's program fills
    its lane (:func:`fill_kind`; a remote lane's agrees, where the executor
    shares one address space)."""
    def fn(comm):
        red = load(comm, dims, backend, "zerocopy", layout)
        (rnd,) = executed_rounds(red.mapping, backend, True)
        lanes = every_lane(rnd, "recv")
        assert [lane.peer for lane in lanes] == list(range(NPROCS))
        for lane in lanes:
            assert type(lane.datatype) is SubarrayType
            assert lane.datatype.steps == (dims[2] // NPROCS, 0, NPROCS)
        kind = fill_kind(rnd.self_send.datatype._programs[rnd.self_recv.datatype])
        for lane in rnd.sends:
            assert [fill_kind(p) for p in lane.datatype._programs.values()] in ([], [kind])
        return kind

    return spmd(NPROCS, fn)


GEOMETRIES = pytest.mark.parametrize(
    "dims", [(256, 256, 64), (128, 128, 128)], ids=["tiff_load", "redist_rounds"]
)


@GEOMETRIES
@pytest.mark.parametrize("backend", ["alltoallw", "p2p"])
def test_merged_receive_lanes_are_one_stepped_subarray(dims, backend):
    """Planes allocated one by one: the copy program concatenates a block
    list."""
    assert merged_lanes(dims, backend, "separate") == ["blocks"] * NPROCS


@GEOMETRIES
@pytest.mark.parametrize("backend", ["alltoallw", "p2p"])
def test_planes_of_one_array_copy_in_one_call(dims, backend):
    """Planes that are views of one rank-local array sit at one stride: the
    copy program moves each lane in one ``np.copyto`` of one strided view."""
    assert merged_lanes(dims, backend, "one-array") == ["view"] * NPROCS


@thread_only
@pytest.mark.parametrize("backend", ["alltoallw", "p2p"])
def test_every_stepped_receive_lane_is_filled_once(monkeypatch, backend):
    """Under both protocols, remote lanes and the self copy alike: each
    stepped receive subarray is filled once (zero-copy: straight from the
    sender's 16 chunks), by the rank thread that receives it."""
    filled = []
    fill = SubarrayType._fill

    def recording(self, buffer, pieces):
        filled.append((threading.get_ident(), self.blocks))
        fill(self, buffer, pieces)

    monkeypatch.setattr(SubarrayType, "_fill", recording)
    idents = spmd(NPROCS, lambda comm: load(comm, (64, 64, 64), backend, "zerocopy")
                  and threading.get_ident())
    for ident in idents:  # every lane, self lanes included
        assert [blocks for who, blocks in filled if who == ident] == [16] * NPROCS
    assert len(filled) == NPROCS * NPROCS
