"""Seed -> inputs.  The same seed gives the same inputs; the program under
test receives only what is generated here.

The seed drives contents (array values, phantom noise, flow parameters,
frame phase, ROI placement) and nothing the timing depends on structurally:
sizes, rank counts, chunk shapes and message counts are fixed per workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import Box
from repro.imaging import VolumeSpec, tooth_slice
from repro.lbm import LbmConfig
from repro.serve import ConsumerLayout
from repro.volren import grid_boxes

RANKS = 4  # every rank workload runs a 4-rank world


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


# -- redist_bulk / redist_rounds ---------------------------------------------------


@dataclass(frozen=True)
class RedistCase:
    """One redistribution pattern: who owns what, who needs what."""

    name: str
    dims: tuple[int, int, int]  # paper order (x, y, z)
    round_robin: bool  # single-slice z-slabs dealt round-robin, else one slab per rank

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.dims)) * 4

    def own(self, rank: int) -> list[Box]:
        x, y, z = self.dims
        if self.round_robin:
            return [Box((0, 0, k), (x, y, 1)) for k in range(rank, z, RANKS)]
        depth = z // RANKS
        return [Box((0, 0, rank * depth), (x, y, depth))]

    def need(self, rank: int) -> Box:
        return grid_boxes(self.dims, (2, 2, 1))[rank]


#: 32 MiB, one round, 16 lanes of 2 MiB in 512-byte runs: the largest array
#: whose exchange (own + need buffers, 64 MiB touched) stays inside this
#: host's share of the last-level cache.  At 64 MiB a plain copy of the same
#: bytes swings 2.5x from second to second, which no statistic steadies.
BULK = RedistCase("redist_bulk", (256, 256, 128), round_robin=False)
#: 8 MiB, 32 rounds, 512 small messages: per-message overhead dominates.
ROUNDS = RedistCase("redist_rounds", (128, 128, 128), round_robin=True)


def global_array(seed: int, case: RedistCase) -> np.ndarray:
    """The whole array, C order ``(z, y, x)``; ranks copy their chunks out
    of it and the oracle crops each need box from it."""
    x, y, z = case.dims
    return _rng(seed, 1).random((z, y, x), dtype=np.float32)


def crop(array: np.ndarray, box: Box) -> np.ndarray:
    """The part of a C-order array a paper-order box selects."""
    index = tuple(
        slice(start, start + size)
        for start, size in zip(reversed(box.offset), reversed(box.dims))
    )
    return array[index]


# -- tiff_load -----------------------------------------------------------------------

#: 16 MiB of float32 slices: 16 round-robin chunk slots per rank, so mapping
#: setup is most of the round-robin load, as at the paper's native scale.
STACK = VolumeSpec(width=256, height=256, depth=64, dtype=np.float32)


def phantom_slices(seed: int, spec: VolumeSpec = STACK) -> list[np.ndarray]:
    """The ``tooth`` phantom plus seeded sensor noise, one array per slice."""
    rng = _rng(seed, 2)
    return [
        tooth_slice(spec, z)
        + rng.normal(0.0, 0.01, (spec.height, spec.width)).astype(np.float32)
        for z in range(spec.depth)
    ]


# -- intransit_lbm -------------------------------------------------------------------

NX, NY = 600, 240  # SNIPPETS.md Snippet 2's lattice
SIM_RANKS, ANALYSIS_RANKS = 4, 2
OUTPUT_EVERY = 10


def lbm_config(seed: int) -> LbmConfig:
    """Flow past the paper's barrier; the seed perturbs inflow speed and
    viscosity by a few percent, which changes the field and not the work."""
    rng = _rng(seed, 3)
    return LbmConfig(
        nx=NX,
        ny=NY,
        u0=float(rng.uniform(0.095, 0.105)),
        viscosity=float(rng.uniform(0.019, 0.021)),
    )


# -- serve_edge ----------------------------------------------------------------------

ROI_W, ROI_H = 400, 160
SERVE_M = 4  # producer slabs


@dataclass(frozen=True)
class ServeInputs:
    phase: int  # SyntheticSource frame index of the first published frame
    layouts: tuple[ConsumerLayout, ...]  # full, ROI, mip=1 parts=2
    queries: tuple[str, ...]  # the same layouts as edge query strings


def serve_inputs(seed: int) -> ServeInputs:
    rng = _rng(seed, 4)
    x = int(rng.integers(0, NX - ROI_W + 1))
    y = int(rng.integers(0, NY - ROI_H + 1))
    queries = ("", f"x={x}&y={y}&w={ROI_W}&h={ROI_H}", "mip=1&parts=2")
    layouts = (
        ConsumerLayout.make(NX, NY),
        ConsumerLayout.make(NX, NY, x=x, y=y, w=ROI_W, h=ROI_H),
        ConsumerLayout.make(NX, NY, mip=1, parts=2),
    )
    return ServeInputs(int(rng.integers(0, 1000)), layouts, queries)
