"""N-dimensional axis-aligned boxes in the paper's coordinate convention.

DDR describes every chunk of data by *dimensions* and *offsets* into the
overall domain, ordered ``[i]`` (1D), ``[i, j]`` (2D) or ``[i, j, k]`` (3D)
where ``i`` is the **fastest-varying (contiguous) axis** — the convention of
the paper's Algorithm 1 / Table I.  NumPy C-order arrays use the reverse
axis order, so :meth:`Box.np_shape` exists for the boundary crossings.

Boxes are half-open: a box with offset ``o`` and dims ``d`` covers indices
``o <= x < o + d`` per axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned half-open box: ``offset[a] <= x_a < offset[a] + dims[a]``."""

    offset: tuple[int, ...]
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        offset = tuple(int(v) for v in self.offset)
        dims = tuple(int(v) for v in self.dims)
        if len(offset) != len(dims):
            raise ValueError(f"offset rank {len(offset)} != dims rank {len(dims)}")
        if len(dims) == 0:
            raise ValueError("boxes must have at least one dimension")
        if any(d < 0 for d in dims):
            raise ValueError(f"negative dims {dims}")
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def unchecked(cls, offset: tuple[int, ...], dims: tuple[int, ...]) -> "Box":
        """A box from int tuples already known to be valid (planner rows)."""
        box = object.__new__(cls)
        object.__setattr__(box, "offset", offset)
        object.__setattr__(box, "dims", dims)
        return box

    # -- basic geometry -----------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def end(self) -> tuple[int, ...]:
        """Exclusive upper corner per axis."""
        return tuple(o + d for o, d in zip(self.offset, self.dims))

    def volume(self) -> int:
        total = 1
        for d in self.dims:
            total *= d
        return total

    def is_empty(self) -> bool:
        return any(d == 0 for d in self.dims)

    def contains_point(self, point: Sequence[int]) -> bool:
        if len(point) != self.ndim:
            raise ValueError("point rank mismatch")
        return all(o <= p < e for o, p, e in zip(self.offset, point, self.end))

    def contains_box(self, other: "Box") -> bool:
        self._check_rank(other)
        if other.is_empty():
            return True
        return all(
            so <= oo and oe <= se
            for so, se, oo, oe in zip(self.offset, self.end, other.offset, other.end)
        )

    def intersect(self, other: "Box") -> Optional["Box"]:
        """The overlap box, or ``None`` when the boxes are disjoint."""
        self._check_rank(other)
        lo = tuple(max(a, b) for a, b in zip(self.offset, other.offset))
        hi = tuple(min(a, b) for a, b in zip(self.end, other.end))
        if any(h <= l for l, h in zip(lo, hi)):
            return None
        return Box(lo, tuple(h - l for l, h in zip(lo, hi)))

    def overlaps(self, other: "Box") -> bool:
        return self.intersect(other) is not None

    def translate(self, delta: Sequence[int]) -> "Box":
        if len(delta) != self.ndim:
            raise ValueError("delta rank mismatch")
        return Box(tuple(o + d for o, d in zip(self.offset, delta)), self.dims)

    def relative_to(self, origin: "Box") -> "Box":
        """This box expressed in coordinates local to ``origin``'s corner."""
        self._check_rank(origin)
        return self.translate(tuple(-o for o in origin.offset))

    def union_bounds(self, other: "Box") -> "Box":
        """Smallest box containing both (bounding box, not set union)."""
        self._check_rank(other)
        lo = tuple(min(a, b) for a, b in zip(self.offset, other.offset))
        hi = tuple(max(a, b) for a, b in zip(self.end, other.end))
        return Box(lo, tuple(h - l for l, h in zip(lo, hi)))

    # -- NumPy boundary ------------------------------------------------------

    def np_shape(self) -> tuple[int, ...]:
        """C-order array shape for a buffer holding exactly this box."""
        return tuple(reversed(self.dims))

    def np_starts_within(self, container: "Box") -> tuple[int, ...]:
        """C-order start indices of this box inside ``container``'s buffer."""
        if not container.contains_box(self):
            raise ValueError(f"{self} not contained in {container}")
        return tuple(reversed([o - co for o, co in zip(self.offset, container.offset)]))

    def cells(self) -> Iterator[tuple[int, ...]]:
        """Iterate every integer cell (paper axis order).  Test-sized boxes only."""
        ranges = [range(o, o + d) for o, d in zip(self.offset, self.dims)]

        def rec(prefix: tuple[int, ...], remaining: list[range]) -> Iterator[tuple[int, ...]]:
            if not remaining:
                yield prefix
                return
            for v in remaining[0]:
                yield from rec(prefix + (v,), remaining[1:])

        return rec((), ranges)

    def _check_rank(self, other: "Box") -> None:
        if other.ndim != self.ndim:
            raise ValueError(f"rank mismatch: {self.ndim} vs {other.ndim}")

    def __str__(self) -> str:
        return f"Box(offset={list(self.offset)}, dims={list(self.dims)})"


def intersect_many(
    box: Box, offsets: np.ndarray, dims: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised ``box.intersect`` against ``N`` boxes.

    ``offsets``/``dims`` are ``(N, ndim)`` integer arrays.  Returns
    ``(mask, lo, extent)`` where ``mask[n]`` says whether box ``n`` overlaps
    and ``lo``/``extent`` give the overlap geometry (only valid where
    ``mask``).  Used on the hot path of full-scale mapping computation
    (e.g. 4096 chunks x 216 needs for the paper's Table III).
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    dims = np.asarray(dims, dtype=np.int64)
    if offsets.ndim != 2 or offsets.shape != dims.shape or offsets.shape[1] != box.ndim:
        raise ValueError("offsets/dims must be (N, ndim) arrays matching the box rank")
    lo = np.maximum(offsets, np.asarray(box.offset, dtype=np.int64))
    hi = np.minimum(offsets + dims, np.asarray(box.end, dtype=np.int64))
    extent = hi - lo
    mask = (extent > 0).all(axis=1)
    return mask, lo, extent


def boxes_from_flat(
    nchunks: int, ndims: int, dims_flat: Sequence[int], offsets_flat: Sequence[int]
) -> list[Box]:
    """Decode the paper's flat parameter arrays (P4/P5 of Table I) into boxes.

    ``dims_flat`` and ``offsets_flat`` hold ``nchunks * ndims`` values, chunk
    by chunk, each chunk's values in ``[i, j, k]`` order.
    """
    dims_list = [int(v) for v in np.asarray(dims_flat).reshape(-1)]
    offsets_list = [int(v) for v in np.asarray(offsets_flat).reshape(-1)]
    expected = nchunks * ndims
    if len(dims_list) != expected:
        raise ValueError(
            f"dims array has {len(dims_list)} values, expected {nchunks} chunks x {ndims} dims"
        )
    if len(offsets_list) != expected:
        raise ValueError(
            f"offsets array has {len(offsets_list)} values, "
            f"expected {nchunks} chunks x {ndims} dims"
        )
    boxes = []
    for c in range(nchunks):
        dims = tuple(dims_list[c * ndims : (c + 1) * ndims])
        offset = tuple(offsets_list[c * ndims : (c + 1) * ndims])
        boxes.append(Box(offset, dims))
    return boxes
