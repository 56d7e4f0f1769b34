"""Validation of DDR mapping preconditions (paper §III-B).

The paper requires the *sent* side to be mutually exclusive and complete —
no cell owned twice, every cell of the domain owned by someone — while the
*received* side may overlap and leave gaps.  These checks catch caller bugs
before they become silent data corruption.  They run on the stacked
declarations every rank allgathered (:class:`~repro.core.schedule.Declarations`),
so every rank reaches the same verdict and raises the same error, and they
are cheap enough (array reductions plus one sort-and-sweep) to leave on by
default.  The :class:`Box`-list functions are front ends to the same checks.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .box import Box
from .schedule import Declarations

#: Candidate pairs one sweep pass tests at most (bounds its temporaries
#: when many chunks share a start along every axis).
CANDIDATES_PER_PASS = 1 << 20


class MappingValidationError(ValueError):
    """The caller's chunk description violates a DDR precondition."""


def _box(offset: np.ndarray, dims: np.ndarray) -> Box:
    return Box(tuple(offset.tolist()), tuple(dims.tolist()))


def _declared(
    owns: Sequence[Sequence[Box]], needs: Optional[Sequence[Optional[Box]]] = None,
    ndims: Optional[int] = None,
) -> Declarations:
    """``owns`` / ``needs`` as stacked declarations (1-D when nothing says)."""
    needs = [None] * len(owns) if needs is None else needs
    boxes = [box for chunks in owns for box in chunks] + [n for n in needs if n is not None]
    return Declarations.from_boxes(owns, needs, ndims or (boxes[0].ndim if boxes else 1))


def domain_of(decl: Declarations) -> Optional[Box]:
    """Bounding box of every non-empty declared chunk (the data domain)."""
    full = (decl.chunks[:, 1] > 0).all(axis=1)
    return _bounds(decl.chunks[full]) if full.any() else None


def _bounds(chunks: np.ndarray) -> Box:
    lo = chunks[:, 0].min(axis=0)
    return _box(lo, (chunks[:, 0] + chunks[:, 1]).max(axis=0) - lo)


def check_send_coverage(
    owns: Sequence[Sequence[Box]], domain: Optional[Box] = None
) -> Box:
    """Verify owned chunks exactly tile ``domain``; returns the domain.

    Raises :class:`MappingValidationError` on overlap (two owners of one
    cell) or incompleteness (unowned cells).
    """
    return _check_chunks(_declared(owns), domain)


def check_receives_within_domain(
    needs: Sequence[Optional[Box]], domain: Box
) -> None:
    """Receives may overlap each other and may be partial, but a request for
    cells nobody owns can never be satisfied — reject it here."""
    _check_needs(_declared([[] for _ in needs], needs, domain.ndim), domain)


def check_declarations(decl: Declarations) -> Box:
    """Every set-up precondition on the allgathered declarations; returns
    the domain (the chunks' bounding box)."""
    domain = _check_chunks(decl, None)
    _check_needs(decl, domain)
    return domain


def _check_chunks(decl: Declarations, domain: Optional[Box]) -> Box:
    full = np.flatnonzero((decl.chunks[:, 1] > 0).all(axis=1))
    if not full.size:
        raise MappingValidationError("no rank owns any data")
    chunks = decl.chunks[full]
    given = domain is not None
    if domain is None:
        domain = _bounds(chunks)

    lo, dims = chunks[:, 0], chunks[:, 1]
    total = int(dims.prod(axis=1).sum())
    if total > domain.volume():
        _find_overlap(decl, full)  # raises with the offending pair
        raise MappingValidationError(
            f"owned volume {total} exceeds domain volume {domain.volume()}"
        )
    if total < domain.volume():
        raise MappingValidationError(
            f"owned chunks cover {total} cells but the domain has "
            f"{domain.volume()}; coverage is incomplete"
        )

    # (a domain inferred from the chunks holds every one of them)
    if given and not (inside := _within(lo, dims, domain)).all():
        first = int(inside.argmin())
        raise MappingValidationError(
            f"chunk {_box(lo[first], dims[first])} extends outside domain {domain}"
        )

    # Volumes match and everything is inside the domain.  Disjointness is
    # still required: equal volume with both gaps and overlaps is possible.
    _find_overlap(decl, full)
    return domain


def _within(lo: np.ndarray, dims: np.ndarray, domain: Box) -> np.ndarray:
    start = np.asarray(domain.offset)
    return ((lo >= start) & (lo + dims <= start + domain.dims)).all(axis=1)


def _check_needs(decl: Declarations, domain: Box) -> None:
    lo, dims = decl.needs[:, 0], decl.needs[:, 1]
    outside = decl.has_need & (dims > 0).all(axis=1) & ~_within(lo, dims, domain)
    if outside.any():
        rank = int(outside.argmax())
        raise MappingValidationError(
            f"rank {rank} requests {_box(lo[rank], dims[rank])}, which leaves "
            f"the owned domain {domain}"
        )


def _find_overlap(decl: Declarations, full: np.ndarray) -> None:
    """Raise if any two of the chunks ``full`` indexes overlap, naming the
    first pair: the earliest chunk (rank, then slot order) that overlaps
    one before it, and the earliest of those.

    Sort-and-sweep along the axis with the most distinct chunk starts: after
    sorting by start, a chunk can only meet the chunks after it that start
    before it ends, so only those candidate pairs are intersected on every
    axis.  An image stack of thousands of slices wider than it is deep
    sweeps along depth and tests no pair at all.
    """
    lo = decl.chunks[full, 0]
    hi = lo + decl.chunks[full, 1]
    starts = np.sort(lo, axis=0)
    axis = int((starts[1:] != starts[:-1]).sum(axis=0).argmax())
    order = np.argsort(lo[:, axis], kind="stable")
    stops = np.searchsorted(lo[order, axis], hi[order, axis])
    counts = stops - np.arange(1, len(order) + 1)  # >= 0: each chunk starts before it ends
    ends = np.cumsum(counts)
    if not ends[-1]:
        return
    first: Optional[tuple[int, int]] = None
    begin = 0
    while begin < len(order):  # passes of about CANDIDATES_PER_PASS candidates
        end = int(np.searchsorted(ends, ends[begin] - counts[begin] + CANDIDATES_PER_PASS)) + 1
        span = counts[begin:end]
        left = np.repeat(np.arange(begin, begin + len(span)), span)
        right = left + 1 + np.arange(len(left)) - np.repeat(np.cumsum(span) - span, span)
        a, b = order[left], order[right]
        hit = (np.maximum(lo[a], lo[b]) < np.minimum(hi[a], hi[b])).all(axis=1)
        if hit.any():
            later, earlier = np.maximum(a, b)[hit], np.minimum(a, b)[hit]
            pick = np.lexsort((earlier, later))[0]
            pair = (int(later[pick]), int(earlier[pick]))
            first = pair if first is None else min(first, pair)
        begin = end
    if first is None:
        return
    later, earlier = (int(full[n]) for n in first)
    box, other = _box(*decl.chunks[later]), _box(*decl.chunks[earlier])
    raise MappingValidationError(
        f"rank {decl.owner[earlier]} chunk {decl.slot[earlier]} ({other}) overlaps "
        f"rank {decl.owner[later]} chunk {decl.slot[later]} ({box}) at {box.intersect(other)}"
    )
