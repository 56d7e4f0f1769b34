"""Row-slab decomposition for the distributed LBM (paper §IV-B).

"The simulation application splits the data into slices ... each rank only
needs to communicate with two other ranks at most, the neighbors with data
directly above and below."
"""

from __future__ import annotations

from ..core.box import Box
from ..volren.decompose import split_extent


def slab_rows(ny: int, nprocs: int, rank: int) -> tuple[int, int]:
    """Global row range ``[y0, y1)`` owned by ``rank``."""
    offset, size = split_extent(ny, nprocs)[rank]
    return offset, offset + size


def slab_box(nx: int, ny: int, nprocs: int, rank: int) -> Box:
    """The rank's slab as a DDR box in paper order ``(x, y)``."""
    y0, y1 = slab_rows(ny, nprocs, rank)
    return Box((0, y0), (nx, y1 - y0))


def neighbors(nprocs: int, rank: int) -> tuple[int, int]:
    """(above, below) ranks with periodic wrap.

    The wrap traffic only ever lands in boundary rows that the driver
    overwrites with the inflow condition, as the serial solver overwrites
    the edge rows its streaming leaves stale.
    """
    return (rank - 1) % nprocs, (rank + 1) % nprocs
