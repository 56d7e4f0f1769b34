"""Bench: Figures 4 and 5 — M-to-N streaming and the analysis-side
slice -> rectangle redistribution, executed for real at reduced scale."""

from __future__ import annotations

from repro.bench import fig45
from repro.core import check_send_coverage


def test_figure4_mapping():
    mapping = fig45.figure4_mapping()
    assert [len(g) for g in mapping] == [3, 3, 2, 2]
    assert fig45.figure4_matches_paper()


def test_figure5_layouts():
    layouts = fig45.figure5_layouts(10, 4, 80, 40)
    # Incoming slices are full width; outgoing rectangles are near-square.
    for layout in layouts:
        for slab in layout.incoming_slices:
            assert slab.dims[0] == 80
        w, h = layout.rectangle.dims
        assert 0.5 <= w / h <= 2.0
    # Rectangles tile the domain exactly.
    check_send_coverage([[layout.rectangle] for layout in layouts])


def test_native_m_to_n_run():
    root = fig45.run_native()
    print("\n" + fig45.report())
    assert root.frames == 2
    assert root.data_reduction > 0.5


def test_paper_production_topology():
    """128 sim -> 32 analysis (the run §IV-B actually used): mapping only."""
    mapping = fig45.figure4_mapping(128, 32)
    assert all(len(g) == 4 for g in mapping)
