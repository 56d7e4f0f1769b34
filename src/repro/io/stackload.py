"""Parallel TIFF-stack loading for distributed volume rendering (use case 1).

Three executable strategies, mirroring the paper's Table II columns:

* :func:`load_stack_no_ddr` — every rank reads and decodes **every** slice
  its needed block touches, then crops (the traditional approach: "many
  processes loading the same image ... throwing away much of the data").
* :func:`load_stack_ddr` — slices are read exactly once, divided among the
  ranks round-robin or consecutively, and DDR redistributes the pixels to
  the near-cubic blocks DVR needs.

All strategies return the same per-rank block, so the test suite can assert
bit-equality between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.api import Redistributor
from ..core.box import Box
from ..imaging.stack import TiffStack
from ..imaging.tiff import read_tiff_info
from ..mpisim.comm import Communicator
from ..obs.tracer import TRACER
from ..utils.timing import Timer
from ..volren.decompose import grid_boxes
from .assignment import Assignment, StackGeometry, owned_chunks


def probe_stack(stack: TiffStack) -> tuple[StackGeometry, np.dtype]:
    """The series geometry and sample type, from the first slice's header."""
    indices = stack.indices()
    if not indices:
        raise FileNotFoundError(f"no slices found in {stack.directory}")
    info = read_tiff_info(stack.slice_path(indices[0]))
    geometry = StackGeometry(info.width, info.height, len(indices), info.dtype.itemsize)
    return geometry, info.dtype


def stack_geometry(stack: TiffStack) -> StackGeometry:
    """Derive the series geometry from the files on disk."""
    return probe_stack(stack)[0]


def read_chunk(stack: TiffStack, chunk: Box, dtype: np.dtype) -> np.ndarray:
    """Read a chunk's slices straight into its ``(depth, h, w)`` block."""
    block = np.empty(chunk.np_shape(), dtype=dtype)
    for k, plane in enumerate(block):
        stack.read_slice(chunk.offset[2] + k, out=plane)
    return block


@dataclass
class LoadedBlock:
    """One rank's result: its needed block, where it sits in the volume,
    and the seconds this rank spent reading slices and redistributing."""

    box: Box  # paper-order (x, y, z) geometry
    data: np.ndarray  # C-order (z, y, x) array
    read_s: float
    exchange_s: float = 0.0


def load_stack_no_ddr(
    comm: Communicator,
    stack: TiffStack,
    grid: tuple[int, int, int],
) -> LoadedBlock:
    """Baseline loader: whole-slice decode per rank, per touched slice."""
    geometry, dtype = probe_stack(stack)
    need = grid_boxes(geometry.volume_dims, grid)[comm.rank]
    (x0, y0, z0), (w, h, depth) = need.offset, need.dims
    data = np.empty(need.np_shape(), dtype=dtype)
    image = np.empty((geometry.height, geometry.width), dtype=dtype)
    with TRACER.span("phase.read", strategy="no_ddr", slices=depth), Timer() as read:
        for k in range(depth):
            stack.read_slice(z0 + k, out=image)  # full decode, mostly discarded
            data[k] = image[y0 : y0 + h, x0 : x0 + w]
    return LoadedBlock(box=need, data=data, read_s=read.elapsed)


def load_stack_ddr(
    comm: Communicator,
    stack: TiffStack,
    grid: tuple[int, int, int],
    strategy: Assignment = Assignment.CONSECUTIVE,
    backend: str = "alltoallw",
) -> LoadedBlock:
    """DDR loader: balanced single-read of each slice, then redistribution."""
    geometry, dtype = probe_stack(stack)
    need = grid_boxes(geometry.volume_dims, grid)[comm.rank]
    chunks = owned_chunks(geometry, comm.size, comm.rank, strategy)
    with TRACER.span("phase.read", strategy=strategy.name.lower()), Timer() as read:
        buffers = [read_chunk(stack, chunk, dtype) for chunk in chunks]

    with TRACER.span("phase.redistribute", backend=backend), Timer() as exchange:
        red = Redistributor(comm, ndims=3, dtype=dtype, backend=backend)
        red.setup(own=chunks, need=need)
        data = np.empty(need.np_shape(), dtype=dtype)
        red.exchange(buffers, data)

    return LoadedBlock(box=need, data=data, read_s=read.elapsed, exchange_s=exchange.elapsed)
