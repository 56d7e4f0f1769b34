"""Ghost-row exchange for the slab-decomposed LBM."""

from __future__ import annotations

import numpy as np

from ..mpisim.comm import Communicator
from .decompose import neighbors

TAG_UP = 101
TAG_DOWN = 102


def exchange_ghost_rows(comm: Communicator, f: np.ndarray, buffers: np.ndarray) -> None:
    """Fill ghost rows 0 and -1 of a ``(9, h+2, nx)`` slab in place.

    Row 1 (the top interior row) goes to the neighbor above; row ``h`` (the
    bottom interior row) goes to the neighbor below; their counterparts fill
    our ghosts.  Single-rank runs copy locally (periodic wrap).  ``buffers``
    is the caller's ``(4, 9, nx)`` staging, reusable at once: sends are eager.
    """
    if comm.size == 1:
        f[:, 0, :] = f[:, -2, :]
        f[:, -1, :] = f[:, 1, :]
        return
    top_interior, bottom_interior, top_ghost, bottom_ghost = buffers
    top_interior[...] = f[:, 1, :]
    bottom_interior[...] = f[:, -2, :]
    above, below = neighbors(comm.size, comm.rank)
    # Post BOTH sends before any receive: sends are eager (buffered), so
    # this cannot deadlock even when above == below (two-rank ring).
    comm.Send(top_interior, above, tag=TAG_UP)
    comm.Send(bottom_interior, below, tag=TAG_DOWN)
    comm.Recv(top_ghost, source=above, tag=TAG_DOWN)
    comm.Recv(bottom_ghost, source=below, tag=TAG_UP)
    f[:, 0, :] = top_ghost
    f[:, -1, :] = bottom_ghost
