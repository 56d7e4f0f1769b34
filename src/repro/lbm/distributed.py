"""Slab-decomposed distributed LBM solver.

Bitwise-equivalent to :class:`~repro.lbm.simulation.SerialLbm` (the test
suite asserts exact equality): collision is elementwise, streaming pulls the
same neighbours with ghost rows supplying the ones a slab lacks, and the
periodic wrap traffic lands only in boundary rows that the inflow condition
overwrites.
"""

from __future__ import annotations

import numpy as np

from ..mpisim.comm import Communicator
from .d2q9 import N_DIRS, macroscopics
from .decompose import slab_rows
from .fields import vorticity
from .halo import exchange_ghost_rows
from .simulation import LbmConfig, SerialLbm


class DistributedLbm(SerialLbm):
    """One rank's slab of the simulation (rows ``[y0, y1)`` plus ghosts):
    the serial solver's step with a ghost exchange before streaming."""

    def __init__(self, comm: Communicator, config: LbmConfig) -> None:
        if comm.size > config.ny:
            raise ValueError(
                f"{comm.size} ranks need at least one row each (ny = {config.ny})"
            )
        self.comm = comm
        self._halo = np.empty((4, N_DIRS, config.nx))
        # Interior rows 1..rows; ghost rows 0 and rows+1.
        self._allocate(config, *slab_rows(config.ny, comm.size, comm.rank), ghosts=1)

    @property
    def interior(self) -> np.ndarray:
        """View of the interior populations ``(9, rows, nx)``."""
        return self.f[:, 1:-1, :]

    def _exchange_ghosts(self) -> None:
        exchange_ghost_rows(self.comm, self.f, self._halo)

    def vorticity(self) -> np.ndarray:
        """Interior vorticity matching the serial solver row-for-row.

        Central differences need one neighbor row on each side; ghost rows
        provide it except at the global domain edges, where the serial
        solver's one-sided differences are reproduced by trimming.
        """
        # Refresh ghosts so velocity at slab borders is current.
        self._exchange_ghosts()
        lo = 1 if self.y0 == 0 else 0
        hi = -1 if self.y1 == self.config.ny else None
        _, ux, uy = macroscopics(self.f[:, lo:hi, :])
        curl = vorticity(ux, uy)
        start = 1 - lo  # rows of curl preceding our first interior row
        return curl[start : start + self.rows]
