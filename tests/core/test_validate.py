"""Mapping precondition checks (paper §III-B exclusivity/completeness).

The checks run on the stacked declarations every rank allgathered; the
Box-by-box checks they replaced are kept below as the reference, and every
verdict — including the text of every error — must match theirs.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Box, MappingValidationError, Redistributor, check_send_coverage
from repro.core import validate
from repro.core.schedule import Declarations
from repro.core.validate import check_declarations, check_receives_within_domain, domain_of
from tests.conftest import spmd
from tests.core.test_reorganize_property import random_problem


def infer_domain(owns):
    return domain_of(validate._declared(owns))


class TestInferDomain:
    def test_bounding_box(self):
        owns = [[Box((0, 0), (4, 2))], [Box((0, 2), (4, 2))]]
        assert infer_domain(owns) == Box((0, 0), (4, 4))

    def test_empty(self):
        assert infer_domain([[], []]) is None

    def test_ignores_zero_volume(self):
        owns = [[Box((0,), (4,)), Box((100,), (0,))]]
        assert infer_domain(owns) == Box((0,), (4,))


class TestSendCoverage:
    def test_valid_tiling(self):
        owns = [[Box((0, r), (8, 1)), Box((0, r + 4), (8, 1))] for r in range(4)]
        domain = check_send_coverage(owns)
        assert domain == Box((0, 0), (8, 8))

    def test_overlap_detected(self):
        owns = [[Box((0,), (5,))], [Box((4,), (4,))]]
        with pytest.raises(MappingValidationError, match="overlap"):
            check_send_coverage(owns)

    def test_gap_detected(self):
        owns = [[Box((0,), (3,))], [Box((5,), (3,))]]
        with pytest.raises(MappingValidationError, match="incomplete"):
            check_send_coverage(owns)

    def test_gap_plus_overlap_same_volume_detected(self):
        """Total volume equals the domain volume but the tiling is wrong:
        cells 0-1 owned twice, cell 3 unowned."""
        owns = [[Box((0,), (2,))], [Box((0,), (3,))], [Box((4,), (3,))]]
        # bounding box [0,7) has 7 cells; boxes have 2+3+3 = 8 > 7 -> overlap
        with pytest.raises(MappingValidationError):
            check_send_coverage(owns)

    def test_no_data_rejected(self):
        with pytest.raises(MappingValidationError, match="no rank owns"):
            check_send_coverage([[], []])

    def test_explicit_domain_outside_chunk(self):
        owns = [[Box((0,), (4,))]]
        with pytest.raises(MappingValidationError):
            check_send_coverage(owns, domain=Box((0,), (2,)))

    def test_2d_checkerboard(self):
        owns = [
            [Box((0, 0), (2, 2)), Box((2, 2), (2, 2))],
            [Box((2, 0), (2, 2)), Box((0, 2), (2, 2))],
        ]
        assert check_send_coverage(owns) == Box((0, 0), (4, 4))

    def test_3d_slabs(self):
        owns = [[Box((0, 0, 2 * r), (4, 4, 2))] for r in range(4)]
        assert check_send_coverage(owns) == Box((0, 0, 0), (4, 4, 8))

    def test_overlap_in_3d_detected(self):
        owns = [[Box((0, 0, 0), (4, 4, 3))], [Box((0, 0, 2), (4, 4, 3))]]
        with pytest.raises(MappingValidationError):
            check_send_coverage(owns)

    def test_many_slabs_fast(self):
        """Sweep validation must handle hundreds of slabs without O(n^2) pain."""
        owns = [[Box((0, 0, z), (64, 64, 1))] for z in range(512)]
        assert check_send_coverage(owns).dims == (64, 64, 512)


class TestReceivesWithinDomain:
    def test_ok(self):
        domain = Box((0, 0), (8, 8))
        check_receives_within_domain([Box((0, 0), (4, 4)), None], domain)

    def test_outside_rejected(self):
        domain = Box((0, 0), (8, 8))
        with pytest.raises(MappingValidationError, match="rank 1"):
            check_receives_within_domain(
                [Box((0, 0), (4, 4)), Box((6, 6), (4, 4))], domain
            )

    def test_empty_need_skipped(self):
        check_receives_within_domain([Box((100, 100), (0, 0))], Box((0, 0), (2, 2)))


def union_bounds(a: Box, b: Box) -> Box:
    """Smallest box containing both (bounding box, not set union)."""
    if a.ndim != b.ndim:
        raise ValueError(f"rank mismatch: {a.ndim} vs {b.ndim}")
    lo = tuple(min(x, y) for x, y in zip(a.offset, b.offset))
    hi = tuple(max(x, y) for x, y in zip(a.end, b.end))
    return Box(lo, tuple(h - l for l, h in zip(lo, hi)))


def intersect_many(
    box: Box, offsets: np.ndarray, dims: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised ``box.intersect`` against ``N`` boxes given as ``(N, ndim)``
    ``offsets`` / ``dims``: ``(mask, lo, extent)``, where ``mask[n]`` says
    whether box ``n`` overlaps and ``lo`` / ``extent`` hold the overlap
    (only valid where ``mask``)."""
    offsets = np.asarray(offsets, dtype=np.int64)
    dims = np.asarray(dims, dtype=np.int64)
    if offsets.ndim != 2 or offsets.shape != dims.shape or offsets.shape[1] != box.ndim:
        raise ValueError("offsets/dims must be (N, ndim) arrays matching the box rank")
    lo = np.maximum(offsets, np.asarray(box.offset, dtype=np.int64))
    hi = np.minimum(offsets + dims, np.asarray(box.end, dtype=np.int64))
    extent = hi - lo
    mask = (extent > 0).all(axis=1)
    return mask, lo, extent


def reference_check(owns, needs=None, domain=None) -> Box:
    """The Box-by-box set-up checks the array checks replaced, verbatim in
    effect: bounding box by ``union_bounds``, volumes, containment, and each
    chunk intersected with every chunk before it."""
    boxes = [(r, i, box) for r, chunks in enumerate(owns) for i, box in enumerate(chunks)]
    boxes = [(r, i, box) for r, i, box in boxes if not box.is_empty()]
    if not boxes:
        raise MappingValidationError("no rank owns any data")
    if domain is None:
        domain = boxes[0][2]
        for _, _, box in boxes[1:]:
            domain = union_bounds(domain, box)

    def find_overlap():
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

    total = sum(box.volume() for _, _, box in boxes)
    if total > domain.volume():
        find_overlap()
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
    find_overlap()
    for rank, need in enumerate(needs or []):
        if need is not None and not need.is_empty() and not domain.contains_box(need):
            raise MappingValidationError(
                f"rank {rank} requests {need}, which leaves the owned domain {domain}"
            )
    return domain


def verdict(check, *args) -> str:
    """The domain a check returns, or the text of the error it raises."""
    try:
        return str(check(*args))
    except MappingValidationError as error:
        return f"error: {error}"


def array_check(owns, needs=None):
    needs = [None] * len(owns) if needs is None else needs
    return check_declarations(Declarations.from_boxes(owns, needs))


def wide_stack(overlap: bool):
    """Paper use case A: 2048 slices far wider than the stack is deep, dealt
    round-robin to four ranks; optionally rank 2's slice 42 grown over
    rank 3's slice 43, and rank 0's slice 400 emptied to keep the volume."""
    owns = [[Box((0, 0, z), (4096, 4096, 1)) for z in range(r, 2048, 4)] for r in range(4)]
    if overlap:
        owns[2][10] = Box((0, 0, 42), (4096, 4096, 2))
        owns[0][100] = Box((0, 0, 400), (4096, 4096, 0))
    return owns


PLANTED = {
    "overlap": ([[Box((0, 0), (4, 3))], [Box((0, 2), (4, 2))]], None),
    "gap": ([[Box((0,), (3,))], [Box((5,), (3,))]], None),
    "overlap and gap, same volume": (
        [[Box((0, 0), (2, 4)), Box((2, 0), (2, 2))], [Box((3, 0), (1, 4)), Box((2, 3), (1, 1))]],
        None,
    ),
    "need outside the domain": (
        [[Box((0, 0), (4, 2))], [Box((0, 2), (4, 2))]],
        [Box((0, 0), (4, 4)), Box((2, 2), (3, 2))],
    ),
    "wide image stack with one doubled slice": (wide_stack(overlap=True), None),
}


@pytest.mark.parametrize("case", sorted(PLANTED))
def test_planted_declarations_raise_the_reference_message(case):
    owns, needs = PLANTED[case]
    expected = verdict(reference_check, owns, needs)
    assert expected.startswith("error: ")
    assert verdict(array_check, owns, needs) == expected


def test_excess_volume_against_a_given_domain_matches_the_reference():
    owns = [[Box((0,), (2,))], [Box((2,), (2,))]]
    domain = Box((0,), (3,))
    expected = verdict(reference_check, owns, None, domain)
    assert expected == "error: owned volume 4 exceeds domain volume 3"
    assert verdict(check_send_coverage, owns, domain) == expected


def test_wide_image_stack_validates_without_quadratic_sweep():
    """Slices far wider than the stack is deep: every box starts at the same
    x and y, so a sweep along either keeps all of them in play (n^2 / 2
    intersections); the sweep along depth tests none."""
    owns = wide_stack(overlap=False)
    started = time.perf_counter()
    assert check_send_coverage(owns).dims == (4096, 4096, 2048)
    assert time.perf_counter() - started < 2.0


def test_vectorised_overlap_check_matches_pairwise_reference(rng):
    """Random boxes dealt to random ranks, 1-3-D: the sweep names the same
    first overlapping pair as the chunk-by-chunk reference."""
    for _ in range(300):
        ndim = int(rng.integers(1, 4))
        owns = [[] for _ in range(int(rng.integers(1, 4)))]
        for _ in range(int(rng.integers(2, 9))):
            box = Box(tuple(rng.integers(0, 6, size=ndim)), tuple(rng.integers(0, 4, size=ndim)))
            owns[int(rng.integers(len(owns)))].append(box)
        assert verdict(check_send_coverage, owns) == verdict(reference_check, owns), owns


@pytest.mark.parametrize("per_pass", [1, 3])
def test_overlap_sweep_in_small_passes_matches_the_reference(rng, monkeypatch, per_pass):
    """The same, with the candidate pairs tested a few at a time."""
    monkeypatch.setattr(validate, "CANDIDATES_PER_PASS", per_pass)
    test_vectorised_overlap_check_matches_pairwise_reference(rng)


@given(seed=st.integers(0, 10_000), ndim=st.integers(1, 3), nprocs=st.integers(1, 8),
       edit=st.sampled_from(["none", "shift", "grow", "shrink", "duplicate", "drop", "need"]))
@settings(max_examples=150, deadline=None)
def test_verdicts_match_the_reference_on_damaged_tilings(seed, ndim, nprocs, edit):
    """A valid random tiling, then one edit that may break it: both checks
    reach the same verdict, word for word."""
    _, owns, needs = random_problem(seed, ndim, nprocs)
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(nprocs))
    axis = int(rng.integers(ndim))
    step = tuple(int(a == axis) for a in range(ndim))
    if edit != "need" and owns[rank]:
        slot = int(rng.integers(len(owns[rank])))
        box = owns[rank][slot]
        if edit == "shift":
            owns[rank][slot] = box.translate(step)
        elif edit in ("grow", "shrink"):
            sign = 1 if edit == "grow" else -1
            owns[rank][slot] = Box(box.offset, tuple(d + sign * s for d, s in zip(box.dims, step)))
        elif edit == "duplicate":
            owns[(rank + 1) % nprocs].append(box)
        else:
            del owns[rank][slot]
    elif edit == "need":
        needs[rank] = needs[rank].translate(step)
    assert verdict(array_check, owns, needs) == verdict(reference_check, owns, needs)


def test_every_rank_raises_when_two_ranks_overlap():
    """Only ranks 2 and 3 declare the same cells, but the verdict comes from
    the allgathered declarations, so all four ranks raise it at once and
    none is left waiting in an exchange."""

    def fn(comm):
        rank = comm.rank
        own = [Box((0, 2), (8, 1))] if rank >= 2 else [Box((0, 4 + rank), (8, 1))]
        red = Redistributor(comm, ndims=2, dtype=np.float32)
        started = time.perf_counter()
        try:
            red.setup(own=own, need=Box((0, 0), (8, 1)))
        except MappingValidationError as error:
            return str(error), time.perf_counter() - started
        return "no error", time.perf_counter() - started

    results = spmd(4, fn)  # a rank left waiting would end the run with a DeadlineError
    messages = {message for message, _ in results}
    assert len(messages) == 1 and "overlaps" in messages.pop()
    assert max(elapsed for _, elapsed in results) < 1.0
