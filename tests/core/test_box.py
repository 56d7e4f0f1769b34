"""Unit + property tests for the Box algebra underlying DDR's mapping."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Box, boxes_from_flat
from tests.core.test_validate import intersect_many, union_bounds


def box_strategy(ndim: int, lo: int = 0, hi: int = 20):
    offs = st.tuples(*[st.integers(lo, hi)] * ndim)
    dims = st.tuples(*[st.integers(1, hi)] * ndim)
    return st.builds(Box, offs, dims)


class TestConstruction:
    def test_basic(self):
        b = Box((1, 2), (3, 4))
        assert b.ndim == 2
        assert b.end == (4, 6)
        assert b.volume() == 12

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            Box((0,), (1, 2))

    def test_negative_dims(self):
        with pytest.raises(ValueError):
            Box((0, 0), (1, -1))

    def test_zero_rank(self):
        with pytest.raises(ValueError):
            Box((), ())

    def test_empty_box(self):
        assert Box((0,), (0,)).is_empty()
        assert not Box((0,), (1,)).is_empty()

    def test_numpy_ints_accepted(self):
        b = Box(tuple(np.array([1, 2])), tuple(np.array([3, 4])))
        assert b.offset == (1, 2)
        assert isinstance(b.offset[0], int)


class TestGeometry:
    def test_intersect_overlap(self):
        a = Box((0, 0), (4, 4))
        b = Box((2, 2), (4, 4))
        hit = a.intersect(b)
        assert hit == Box((2, 2), (2, 2))

    def test_intersect_disjoint(self):
        assert Box((0,), (2,)).intersect(Box((5,), (2,))) is None

    def test_intersect_touching_is_disjoint(self):
        # Half-open boxes: [0,2) and [2,4) do not overlap.
        assert Box((0,), (2,)).intersect(Box((2,), (2,))) is None

    def test_contains(self):
        outer = Box((0, 0, 0), (10, 10, 10))
        assert outer.contains_box(Box((1, 2, 3), (2, 2, 2)))
        assert not outer.contains_box(Box((9, 0, 0), (2, 1, 1)))

    def test_contains_empty(self):
        assert Box((0,), (2,)).contains_box(Box((100,), (0,)))

    def test_translate_relative(self):
        b = Box((5, 6), (2, 3))
        assert b.translate((-5, -6)) == Box((0, 0), (2, 3))
        origin = Box((4, 4), (10, 10))
        assert b.relative_to(origin) == Box((1, 2), (2, 3))

    def test_union_bounds(self):
        a = Box((0, 0), (2, 2))
        b = Box((5, 1), (1, 4))
        assert union_bounds(a, b) == Box((0, 0), (6, 5))

    def test_np_shape_is_reversed(self):
        # Paper order [i, j, k] (i fastest) -> C shape (k, j, i).
        assert Box((0, 0, 0), (4096, 2048, 1)).np_shape() == (1, 2048, 4096)

    def test_np_starts_within(self):
        container = Box((0, 0), (8, 8))
        region = Box((4, 2), (2, 3))
        assert region.np_starts_within(container) == (2, 4)

    def test_np_starts_outside_raises(self):
        with pytest.raises(ValueError):
            Box((7, 0), (4, 1)).np_starts_within(Box((0, 0), (8, 8)))

    def test_cells(self):
        cells = list(Box((1, 10), (2, 2)).cells())
        assert cells == [(1, 10), (1, 11), (2, 10), (2, 11)]


class TestProperties:
    @given(a=box_strategy(2), b=box_strategy(2))
    @settings(max_examples=200, deadline=None)
    def test_intersection_commutative_and_contained(self, a, b):
        ab, ba = a.intersect(b), b.intersect(a)
        assert ab == ba
        if ab is not None:
            assert a.contains_box(ab) and b.contains_box(ab)
            assert ab.volume() <= min(a.volume(), b.volume())
            assert not ab.is_empty()

    @given(a=box_strategy(3), b=box_strategy(3))
    @settings(max_examples=100, deadline=None)
    def test_intersection_cellwise(self, a, b):
        """Geometric intersection equals set intersection of cells."""
        if a.volume() > 400 or b.volume() > 400:
            return
        hit = a.intersect(b)
        cells = set(a.cells()) & set(b.cells())
        if hit is None:
            assert not cells
        else:
            assert set(hit.cells()) == cells

    @given(a=box_strategy(2))
    @settings(max_examples=50, deadline=None)
    def test_self_intersection_identity(self, a):
        assert a.intersect(a) == a

    @given(a=box_strategy(2), b=box_strategy(2))
    @settings(max_examples=100, deadline=None)
    def test_union_bounds_contains_both(self, a, b):
        u = union_bounds(a, b)
        assert u.contains_box(a) and u.contains_box(b)


class TestIntersectMany:
    def test_matches_scalar_intersect(self):
        box = Box((2, 2), (5, 5))
        others = [Box((0, 0), (3, 3)), Box((10, 10), (2, 2)), Box((4, 4), (9, 9))]
        offsets = np.array([o.offset for o in others])
        dims = np.array([o.dims for o in others])
        mask, lo, extent = intersect_many(box, offsets, dims)
        for i, other in enumerate(others):
            hit = box.intersect(other)
            assert mask[i] == (hit is not None)
            if hit is not None:
                assert tuple(lo[i]) == hit.offset
                assert tuple(extent[i]) == hit.dims

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            intersect_many(Box((0,), (1,)), np.zeros((2, 2)), np.zeros((2, 2)))


class TestBoxesFromFlat:
    def test_paper_table1_rank0(self):
        # Table I, rank 0: P4 = {[8,1],[8,1]}, P5 = {[0,0],[0,4]}
        boxes = boxes_from_flat(2, 2, [8, 1, 8, 1], [0, 0, 0, 4])
        assert boxes == [Box((0, 0), (8, 1)), Box((0, 4), (8, 1))]

    def test_nested_input_accepted(self):
        boxes = boxes_from_flat(2, 2, [[8, 1], [8, 1]], [[0, 0], [0, 4]])
        assert boxes[1] == Box((0, 4), (8, 1))

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            boxes_from_flat(2, 2, [8, 1, 8], [0, 0, 0, 4])
        with pytest.raises(ValueError):
            boxes_from_flat(2, 2, [8, 1, 8, 1], [0, 0, 0])
