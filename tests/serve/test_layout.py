"""ConsumerLayout: canonicalization, clamping, and derived geometry."""

import pytest

from repro.core.box import Box
from repro.serve import ConsumerLayout


class TestMake:
    def test_defaults_cover_full_domain(self):
        layout = ConsumerLayout.make(64, 32)
        assert layout.roi == Box((0, 0), (64, 32))
        assert layout.mip == 0
        assert layout.parts == 1

    def test_roi_clamps_to_domain(self):
        layout = ConsumerLayout.make(64, 32, x=48, y=24, w=100, h=100)
        assert layout.roi == Box((48, 24), (16, 8))

    def test_negative_origin_clamps(self):
        layout = ConsumerLayout.make(64, 32, x=-10, y=-5, w=20, h=10)
        assert layout.roi == Box((0, 0), (10, 5))

    def test_roi_outside_domain_raises(self):
        with pytest.raises(ValueError, match="outside"):
            ConsumerLayout.make(64, 32, x=100, y=0, w=8, h=8)

    def test_mip_clamps_to_keep_a_pixel(self):
        layout = ConsumerLayout.make(64, 32, w=8, h=4, mip=10)
        assert (1 << layout.mip) <= 4

    def test_parts_clamps_to_roi_height(self):
        layout = ConsumerLayout.make(64, 32, h=3, parts=99)
        assert layout.parts == 3

    def test_one_pixel_roi(self):
        layout = ConsumerLayout.make(64, 32, x=17, y=9, w=1, h=1, mip=3, parts=4)
        assert layout.roi == Box((17, 9), (1, 1))
        assert layout.mip == 0
        assert layout.parts == 1


class TestValidation:
    def test_direct_construction_validates(self):
        with pytest.raises(ValueError, match="parts"):
            ConsumerLayout(roi=Box((0, 0), (8, 4)), parts=5)
        with pytest.raises(ValueError, match="mip"):
            ConsumerLayout(roi=Box((0, 0), (8, 4)), mip=-1)
        with pytest.raises(ValueError, match="empty"):
            ConsumerLayout(roi=Box((0, 0), (0, 4)))


class TestFromQuery:
    def test_parses_all_parameters(self):
        layout = ConsumerLayout.from_query(
            {"x": "4", "y": "2", "w": "24", "h": "12", "mip": "1", "parts": "2"},
            64, 32,
        )
        assert layout.roi == Box((4, 2), (24, 12))
        assert layout.mip == 1
        assert layout.parts == 2

    def test_empty_query_is_full_domain(self):
        assert ConsumerLayout.from_query({}, 64, 32) == ConsumerLayout.make(64, 32)

    def test_non_integer_raises(self):
        with pytest.raises(ValueError, match="not an integer"):
            ConsumerLayout.from_query({"w": "wide"}, 64, 32)

    def test_equivalent_queries_share_a_canonical_key(self):
        # Over-large w/h clamp to the same ROI as the exact request.
        a = ConsumerLayout.from_query({"w": "9999", "h": "9999"}, 64, 32)
        b = ConsumerLayout.from_query({}, 64, 32)
        assert a.canonical_key() == b.canonical_key()


class TestGeometry:
    def test_part_boxes_tile_the_roi(self):
        layout = ConsumerLayout.make(64, 32, x=4, y=2, w=24, h=13, parts=3)
        parts = layout.part_boxes()
        assert len(parts) == 3
        assert sum(p.dims[1] for p in parts) == 13
        y = 2
        for part in parts:
            assert part.offset == (4, y)
            assert part.dims[0] == 24
            y += part.dims[1]

    def test_describe_mentions_everything(self):
        text = ConsumerLayout.make(64, 32, x=4, y=2, w=24, h=12, mip=1,
                                   parts=2).describe()
        assert "4,2" in text and "24x12" in text
        assert "mip=1" in text and "parts=2" in text
