"""Validation of DDR mapping preconditions (paper §III-B).

The paper requires the *sent* side to be mutually exclusive and complete —
no cell owned twice, every cell of the domain owned by someone — while the
*received* side may overlap and leave gaps.  These checks catch caller bugs
before they become silent data corruption, and are cheap enough (one
vectorised intersection per chunk) to leave on by default.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .box import Box, intersect_many


class MappingValidationError(ValueError):
    """The caller's chunk description violates a DDR precondition."""


def infer_domain(owns: Sequence[Sequence[Box]]) -> Optional[Box]:
    """Bounding box of all owned chunks (the overall data domain)."""
    bounds: Optional[Box] = None
    for chunks in owns:
        for box in chunks:
            if box.is_empty():
                continue
            bounds = box if bounds is None else bounds.union_bounds(box)
    return bounds


def check_send_coverage(
    owns: Sequence[Sequence[Box]], domain: Optional[Box] = None
) -> Box:
    """Verify owned chunks exactly tile ``domain``; returns the domain.

    Raises :class:`MappingValidationError` on overlap (two owners of one
    cell) or incompleteness (unowned cells).
    """
    boxes: list[tuple[int, int, Box]] = []  # (rank, chunk_index, box)
    for rank, chunks in enumerate(owns):
        for index, box in enumerate(chunks):
            if not box.is_empty():
                boxes.append((rank, index, box))
    if not boxes:
        raise MappingValidationError("no rank owns any data")

    if domain is None:
        domain = infer_domain(owns)
        assert domain is not None

    total = sum(box.volume() for _, _, box in boxes)
    if total > domain.volume():
        _find_overlap(boxes)  # raises with the offending pair
        raise MappingValidationError(
            f"owned volume {total} exceeds domain volume {domain.volume()}"
        )
    if total < domain.volume():
        raise MappingValidationError(
            f"owned chunks cover {total} cells but the domain has "
            f"{domain.volume()}; coverage is incomplete"
        )

    for _, _, box in boxes:
        if not domain.contains_box(box):
            raise MappingValidationError(f"chunk {box} extends outside domain {domain}")

    # Volumes match and everything is inside the domain.  Disjointness is
    # still required: equal volume with both gaps and overlaps is possible.
    _find_overlap(boxes)
    return domain


def _find_overlap(boxes: list[tuple[int, int, Box]]) -> None:
    """Raise if any two boxes overlap: each box against all the boxes before
    it in one vectorised intersection (an image stack of thousands of
    slices wider than the stack is deep defeats any single-axis sweep)."""
    offsets = np.array([box.offset for _, _, box in boxes], dtype=np.int64)
    dims = np.array([box.dims for _, _, box in boxes], dtype=np.int64)
    for n in range(1, len(boxes)):
        rank, index, box = boxes[n]
        mask, _, _ = intersect_many(box, offsets[:n], dims[:n])
        if mask.any():
            other_rank, other_index, other = boxes[int(mask.argmax())]
            raise MappingValidationError(
                f"rank {other_rank} chunk {other_index} ({other}) overlaps "
                f"rank {rank} chunk {index} ({box}) at {box.intersect(other)}"
            )


def check_receives_within_domain(
    needs: Sequence[Optional[Box]], domain: Box
) -> None:
    """Receives may overlap each other and may be partial, but a request for
    cells nobody owns can never be satisfied — reject it here."""
    for rank, need in enumerate(needs):
        if need is None or need.is_empty():
            continue
        if not domain.contains_box(need):
            raise MappingValidationError(
                f"rank {rank} requests {need}, which leaves the owned domain {domain}"
            )
