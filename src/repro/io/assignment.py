"""File-to-process assignment strategies for parallel stack loading.

The paper's TIFF use case (§IV-A) evaluates two ways of dividing the image
series among readers:

* **round-robin** — rank ``r`` reads images ``r, r+P, r+2P, ...``; every
  image is its own DDR chunk, so the number of redistribution rounds equals
  ``ceil(n_images / P)``.
* **consecutive** — rank ``r`` reads a contiguous block of images, which
  collapses into a *single* DDR chunk and a single ``Alltoallw`` round.

Both return the owned chunks in the 3D volume coordinate system ``[x, y, z]``
with ``z`` the slice index, ready to feed ``DDR_SetupDataMapping``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core.box import Box
from ..volren.decompose import split_extent


class Assignment(enum.Enum):
    """Reader assignment strategy (the two DDR columns of Table II)."""

    ROUND_ROBIN = "round_robin"
    CONSECUTIVE = "consecutive"
    BLOCK_CYCLIC = "block_cyclic"  # extension: middle ground for the ablation


@dataclass(frozen=True)
class StackGeometry:
    """Shape of one image series: ``n_images`` slices of ``width x height``."""

    width: int
    height: int
    n_images: int
    bytes_per_pixel: int

    @property
    def image_bytes(self) -> int:
        return self.width * self.height * self.bytes_per_pixel

    @property
    def total_bytes(self) -> int:
        return self.image_bytes * self.n_images

    @property
    def volume_dims(self) -> tuple[int, int, int]:
        return (self.width, self.height, self.n_images)



#: The paper's artificial benchmark data set: 4096 images, 4096x2048,
#: 32-bit grayscale — 128 GiB total.
PAPER_STACK = StackGeometry(width=4096, height=2048, n_images=4096, bytes_per_pixel=4)


def assigned_images(
    geometry: StackGeometry, nprocs: int, rank: int, strategy: Assignment,
    block: int = 8,
) -> list[int]:
    """Which slice indices ``rank`` reads from disk."""
    if not (0 <= rank < nprocs):
        raise ValueError(f"rank {rank} out of range for {nprocs} processes")
    n = geometry.n_images
    if strategy is Assignment.ROUND_ROBIN:
        return list(range(rank, n, nprocs))
    if strategy is Assignment.CONSECUTIVE:
        if n < nprocs:
            raise ValueError(f"{n} images cannot feed {nprocs} readers consecutively")
        offset, size = split_extent(n, nprocs)[rank]
        return list(range(offset, offset + size))
    if strategy is Assignment.BLOCK_CYCLIC:
        out = []
        for start in range(rank * block, n, nprocs * block):
            out.extend(range(start, min(start + block, n)))
        return out
    raise ValueError(f"unknown strategy {strategy!r}")


def owned_chunks(
    geometry: StackGeometry, nprocs: int, rank: int, strategy: Assignment,
    block: int = 8,
) -> list[Box]:
    """The DDR chunk list for ``rank``: maximal runs of consecutive slices.

    Round-robin yields one single-slice chunk per image (many rounds);
    consecutive yields one thick chunk (one round) — the trade-off Table III
    quantifies.
    """
    images = assigned_images(geometry, nprocs, rank, strategy, block)
    chunks: list[Box] = []
    run_start: int | None = None
    prev = None
    for z in images + [None]:  # sentinel flushes the last run
        if run_start is None:
            run_start = z
        elif z is None or z != prev + 1:
            length = prev - run_start + 1
            chunks.append(Box((0, 0, run_start), (geometry.width, geometry.height, length)))
            run_start = z
        prev = z
    return chunks


def all_owned_chunks(
    geometry: StackGeometry, nprocs: int, strategy: Assignment, block: int = 8
) -> list[list[Box]]:
    """Owned chunks for every rank (planner input)."""
    return [owned_chunks(geometry, nprocs, r, strategy, block) for r in range(nprocs)]

