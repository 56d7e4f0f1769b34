"""Mapping precondition checks (paper §III-B exclusivity/completeness)."""

from __future__ import annotations

import pytest

from repro.core import Box, MappingValidationError, check_send_coverage, infer_domain
from repro.core.validate import check_receives_within_domain


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


def test_wide_image_stack_validates_without_quadratic_sweep():
    """Paper use case A: slices far wider than the stack is deep.  Every box
    starts at the same x, so a sweep along the widest axis keeps all of them
    active and does n^2/2 pure-Python intersections (about 13 s here)."""
    import time

    owns = [[Box((0, 0, z), (4096, 4096, 1)) for z in range(r, 2048, 4)] for r in range(4)]
    started = time.perf_counter()
    assert check_send_coverage(owns).dims == (4096, 4096, 2048)
    assert time.perf_counter() - started < 2.0


def test_vectorised_overlap_check_matches_pairwise_reference(rng):
    from repro.core.validate import _find_overlap

    """The loop the vectorised check replaced, kept as the reference."""
    for _ in range(200):
        boxes = [
            Box(tuple(rng.integers(0, 6, size=2)), tuple(rng.integers(1, 4, size=2)))
            for _ in range(int(rng.integers(2, 7)))
        ]
        expected = any(a.overlaps(b) for i, a in enumerate(boxes) for b in boxes[:i])
        try:
            _find_overlap([(0, i, box) for i, box in enumerate(boxes)])
        except MappingValidationError:
            assert expected, boxes
        else:
            assert not expected, boxes
