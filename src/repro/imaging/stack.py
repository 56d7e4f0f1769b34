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

#: A slice's name, ``slice_`` + five decimal digits + ``.tif`` (and, as
#: ``re.match(r"^slice_(\d{5})\.tif$", name)`` has it, one optional trailing
#: newline), found in a directory listing joined by NULs, which no file name
#: holds: one search for the whole listing.
_SLICES_RE = re.compile(r"\0slice_(\d{5})\.tif\n?(?=\0)")


def _slice_name(z: int) -> str:
    return f"slice_{z:05d}.tif"


@dataclass
class TiffStack:
    """A directory of slices named ``slice_00000.tif`` ... in z order."""

    directory: Path

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)

    def slice_path(self, z: int) -> Path:
        return self.directory / _slice_name(z)

    def indices(self) -> list[int]:
        """Slice indices present on disk, sorted."""
        listing = "\0".join(["", *os.listdir(self.directory), ""])
        return sorted(map(int, _SLICES_RE.findall(listing)))

    def __len__(self) -> int:
        return len(self.indices())

    def read_slice(self, z: int, out: np.ndarray | None = None) -> np.ndarray:
        """Read + decode one whole slice (the paper's full-decode cost), into ``out``."""
        return read_tiff(os.path.join(self.directory, _slice_name(z)), out=out)


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

