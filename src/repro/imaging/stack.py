"""TIFF image series on disk ("a series of slices ... saved in a standard
image format, such as TIFF", paper §IV-A).

A :class:`TiffStack` is a directory of numbered single-slice TIFFs plus the
conventions for naming and ordering them.  Writers generate slices lazily
from a callable so large stacks never materialise a full volume in memory.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .tiff import read_tiff, write_tiff

_SLICE_RE = re.compile(r"^slice_(\d{5})\.tif$")


@dataclass
class TiffStack:
    """A directory of slices named ``slice_00000.tif`` ... in z order."""

    directory: Path

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)

    def slice_path(self, z: int) -> Path:
        return self.directory / f"slice_{z:05d}.tif"

    def indices(self) -> list[int]:
        """Slice indices present on disk, sorted."""
        found = []
        for name in os.listdir(self.directory):
            match = _SLICE_RE.match(name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def __len__(self) -> int:
        return len(self.indices())

    def read_slice(self, z: int, out: np.ndarray | None = None) -> np.ndarray:
        """Read + decode one whole slice (the paper's full-decode cost), into ``out``."""
        return read_tiff(self.slice_path(z), out=out)

    def read_volume(self) -> np.ndarray:
        """Whole volume ``(depth, height, width)`` — small stacks only."""
        indices = self.indices()
        if not indices:
            raise FileNotFoundError(f"no slices in {self.directory}")
        if indices != list(range(len(indices))):
            raise ValueError(f"stack {self.directory} has gaps: {indices[:10]}...")
        return np.stack([self.read_slice(z) for z in indices])


def write_stack(
    directory: os.PathLike | str,
    n_slices: int,
    slice_fn: Callable[[int], np.ndarray],
    rows_per_strip: int = 64,
) -> TiffStack:
    """Generate a stack by calling ``slice_fn(z)`` for each slice.

    Creates the directory if needed; overwrites existing slices.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    stack = TiffStack(path)
    for z in range(n_slices):
        image = slice_fn(z)
        write_tiff(stack.slice_path(z), image, rows_per_strip=rows_per_strip)
    return stack


def stack_nbytes(stack: TiffStack) -> int:
    """Total on-disk size of the stack's slice files."""
    return sum(stack.slice_path(z).stat().st_size for z in stack.indices())
