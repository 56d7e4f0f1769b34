"""Volume decomposition tests (near-cubic blocks, paper §IV-A)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Box, check_send_coverage
from repro.volren import grid_boxes, grid_shape, split_extent


class TestSplitExtent:
    def test_even(self):
        assert split_extent(8, 4) == [(0, 2), (2, 2), (4, 2), (6, 2)]

    def test_remainder_to_leading_parts(self):
        assert split_extent(10, 3) == [(0, 4), (4, 3), (7, 3)]

    def test_exact_cover(self):
        parts = split_extent(4096, 27)
        assert sum(size for _, size in parts) == 4096
        assert max(s for _, s in parts) - min(s for _, s in parts) <= 1

    def test_errors(self):
        with pytest.raises(ValueError):
            split_extent(2, 3)
        with pytest.raises(ValueError):
            split_extent(4, 0)

    @given(extent=st.integers(1, 500), parts=st.integers(1, 50))
    @settings(max_examples=100, deadline=None)
    def test_property_partition(self, extent, parts):
        if parts > extent:
            return
        pieces = split_extent(extent, parts)
        assert len(pieces) == parts
        cursor = 0
        for offset, size in pieces:
            assert offset == cursor and size >= 1
            cursor += size
        assert cursor == extent


class TestGridShape:
    def test_paper_cubes(self):
        dims = (4096, 2048, 4096)
        assert grid_shape(27, dims) == (3, 3, 3)
        grid = grid_shape(64, dims)
        assert grid == (4, 4, 4) or grid[0] * grid[1] * grid[2] == 64

    def test_product_equals_nprocs(self):
        for n in (6, 12, 30, 100):
            grid = grid_shape(n, (512, 512, 512))
            product = 1
            for g in grid:
                product *= g
            assert product == n

    def test_prefers_near_cubic_blocks(self):
        # 8 procs over a cube: 2x2x2, blocks are perfect cubes.
        assert grid_shape(8, (64, 64, 64)) == (2, 2, 2)

    def test_anisotropic_domain(self):
        # 2:1:2 domain with 4 procs: split the two long axes.
        grid = grid_shape(4, (128, 64, 128))
        assert grid == (2, 1, 2)

    def test_2d(self):
        assert grid_shape(4, (100, 100)) == (2, 2)

    def test_1d(self):
        assert grid_shape(5, (100,)) == (5,)

    def test_impossible(self):
        with pytest.raises(ValueError):
            grid_shape(7, (3, 1, 1))  # 7 > every dimension

    def test_bad_args(self):
        with pytest.raises(ValueError):
            grid_shape(0, (4, 4))
        with pytest.raises(ValueError):
            grid_shape(2, ())


class TestGridBoxes:
    def test_rank_order_x_fastest(self):
        # E1-style 2x2: rank = right + 2*bottom
        boxes = grid_boxes((8, 8), (2, 2))
        assert boxes[0] == Box((0, 0), (4, 4))
        assert boxes[1] == Box((4, 0), (4, 4))
        assert boxes[2] == Box((0, 4), (4, 4))
        assert boxes[3] == Box((4, 4), (4, 4))

    def test_boxes_tile_domain(self):
        boxes = grid_boxes((30, 20, 10), (3, 2, 2))
        check_send_coverage([[b] for b in boxes])  # raises if not a tiling

    def test_block_for_rank(self):
        # x-fastest rank order: rank 3 of a 2x2 grid is the far corner.
        assert grid_boxes((8, 8), (2, 2))[3] == Box((4, 4), (4, 4))

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            grid_boxes((8, 8), (2,))

    @given(
        gx=st.integers(1, 4), gy=st.integers(1, 4), gz=st.integers(1, 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_tiling_3d(self, gx, gy, gz):
        dims = (12, 8, 6)
        boxes = grid_boxes(dims, (gx, gy, gz))
        assert len(boxes) == gx * gy * gz
        total = sum(b.volume() for b in boxes)
        assert total == 12 * 8 * 6
        check_send_coverage([[b] for b in boxes])
