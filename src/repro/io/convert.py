"""Parallel TIFF-stack -> bricked-volume conversion via DDR.

The paper's introduction: "Our research could be integrated into such
packages [ParaView] to enable on-the-fly conversion from data formats that
are laid out in an otherwise incompatible fashion."  This module is that
converter: readers share the slice-decode work evenly, DDR redistributes
pixels from whole slices to brick-aligned slabs, and every rank writes its
own bricks (disjoint fixed offsets, safe concurrently).
"""

from __future__ import annotations

from itertools import product

from ..core.api import Redistributor
from ..core.box import Box
from ..imaging.bricks import BrickedVolume
from ..imaging.stack import TiffStack
from ..mpisim.comm import Communicator
from ..utils.timing import Timer
from ..volren.decompose import split_extent
from .assignment import Assignment, owned_chunks
from .stackload import probe_stack, read_chunk


def brick_layer_ranges(n_layers: int, nprocs: int, rank: int) -> tuple[int, int]:
    """Contiguous block of brick z-layers assigned to ``rank`` (may be empty
    when there are more ranks than layers)."""
    if n_layers >= nprocs:
        offset, size = split_extent(n_layers, nprocs)[rank]
        return offset, offset + size
    if rank < n_layers:
        return rank, rank + 1
    return 0, 0


def convert_stack_to_bricks(
    comm: Communicator,
    stack: TiffStack,
    out_path,
    brick: int = 32,
    strategy: Assignment = Assignment.CONSECUTIVE,
) -> dict[str, float]:
    """Collective conversion; returns this rank's seconds per phase
    (``read``, ``exchange``, ``write``, and ``allocate`` on rank 0).

    Each rank's *need* is a slab of whole brick z-layers, so after one DDR
    exchange it can cut bricks locally and write them at their fixed file
    offsets.
    """
    geometry, dtype = probe_stack(stack)
    timers: dict[str, Timer] = {}

    # Rank 0 allocates the output file; everyone else waits.
    if comm.rank == 0:
        with timers.setdefault("allocate", Timer()):
            BrickedVolume.create(out_path, geometry.volume_dims, dtype, brick=brick)
    comm.Barrier()
    volume = BrickedVolume(out_path)
    header = volume.header

    # Balanced slice reads (the DDR producer side).
    chunks = owned_chunks(geometry, comm.size, comm.rank, strategy)
    with timers.setdefault("read", Timer()):
        buffers = [read_chunk(stack, chunk, dtype) for chunk in chunks]

    # Needs: whole brick z-layers, contiguous per rank (consumer side).
    gx, gy, gz = header.grid
    layer_lo, layer_hi = brick_layer_ranges(gz, comm.size, comm.rank)
    z_lo = layer_lo * brick
    z_hi = min(layer_hi * brick, geometry.n_images)
    need = Box((0, 0, z_lo), (*geometry.volume_dims[:2], z_hi - z_lo)) if z_hi > z_lo else None

    with timers.setdefault("exchange", Timer()):
        red = Redistributor(comm, ndims=3, dtype=header.dtype)
        red.setup(own=chunks, need=need)
        slab = red.gather_need(buffers)

    with timers.setdefault("write", Timer()):  # no layers: no need, no slab
        for k, j, i in product(range(layer_lo, layer_hi), range(gy), range(gx)):
            box = header.brick_box(i, j, k)
            (x0, y0, z0), (w, h, d) = box.offset, box.dims
            volume.write_brick(i, j, k, slab[z0 - z_lo : z0 - z_lo + d, y0 : y0 + h, x0 : x0 + w])
    comm.Barrier()  # conversion is complete for everyone
    return {phase: timer.elapsed for phase, timer in timers.items()}
