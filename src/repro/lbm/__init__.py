"""2-D Lattice-Boltzmann simulation substrate (use case 2 producer)."""

from .d2q9 import (
    CX,
    CY,
    N_DIRS,
    OPPOSITE,
    W,
    bounce_back,
    collide,
    equilibrium,
    macroscopics,
    omega_from_viscosity,
    stream,
)
from .decompose import neighbors, slab_box, slab_rows
from .distributed import DistributedLbm
from .fields import vorticity
from .halo import exchange_ghost_rows
from .simulation import LbmConfig, SerialLbm

__all__ = [
    "CX",
    "CY",
    "DistributedLbm",
    "LbmConfig",
    "N_DIRS",
    "OPPOSITE",
    "SerialLbm",
    "W",
    "bounce_back",
    "collide",
    "equilibrium",
    "exchange_ghost_rows",
    "macroscopics",
    "neighbors",
    "omega_from_viscosity",
    "slab_box",
    "slab_rows",
    "stream",
    "vorticity",
]
