"""Depth compositing of per-rank partial renders.

After DDR places a near-cubic block on every rank and each rank renders it,
the partial images must be combined front-to-back along the view axis —
the standard sort-last compositing step of distributed DVR.  Partial images
are gathered to rank 0 (sufficient at these scales; binary swap would slot
in here for larger runs) and blended per screen tile in depth order.
"""

from __future__ import annotations

import numpy as np

from ..core.box import Box
from ..mpisim.comm import Communicator


def composite_over(front: np.ndarray, back: np.ndarray) -> np.ndarray:
    """Front-to-back 'over' operator on premultiplied RGBA buffers."""
    if front.shape != back.shape:
        raise ValueError(f"shape mismatch {front.shape} vs {back.shape}")
    transmittance = 1.0 - front[..., 3:4]
    out = front.copy()
    out[..., :3] += transmittance * back[..., :3]
    out[..., 3:4] += transmittance * back[..., 3:4]
    return out


def _screen_geometry(box: Box, axis: str) -> tuple[tuple[int, int], tuple[int, int], int]:
    """((row0, col0), (rows, cols), depth_key) of one block's footprint."""
    x, y, z = box.offset
    w, h, d = box.dims
    if axis == "z":
        return (y, x), (h, w), z
    if axis == "y":
        return (z, x), (d, w), y
    if axis == "x":
        return (z, y), (d, h), x
    raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")


def composite_distributed(
    comm: Communicator,
    box: Box,
    partial: np.ndarray,
    volume_dims: tuple[int, int, int],
    axis: str = "z",
    root: int = 0,
) -> np.ndarray | None:
    """Gather per-rank partial RGBA renders and composite on ``root``.

    Each rank contributes its block's ``partial`` image; tiles that share a
    screen footprint are blended front-to-back by their depth along the view
    axis.  Returns the full premultiplied RGBA frame on ``root``, ``None``
    elsewhere.
    """
    (row0, col0), (rows, cols), depth = _screen_geometry(box, axis)
    if partial.shape[:2] != (rows, cols):
        raise ValueError(
            f"partial image {partial.shape[:2]} does not match block footprint {(rows, cols)}"
        )
    gathered = comm.gather(((row0, col0), depth, partial), root=root)
    if comm.rank != root:
        return None

    vx, vy, vz = volume_dims
    if axis == "z":
        screen = (vy, vx)
    elif axis == "y":
        screen = (vz, vx)
    else:
        screen = (vz, vy)
    frame = np.zeros(screen + (4,))

    assert gathered is not None
    for (r0, c0), _, tile in sorted(gathered, key=lambda item: item[1]):
        th, tw = tile.shape[:2]
        region = frame[r0 : r0 + th, c0 : c0 + tw]
        frame[r0 : r0 + th, c0 : c0 + tw] = composite_over(region, tile)
    return frame
