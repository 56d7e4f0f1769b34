"""Bench: Algorithm 1 / Table I / Figure 1 — the paper's E1 example.

Regenerates Table I from Algorithm 1's arithmetic, validates the Figure 1
panel-B mapping, and times the full three-call pipeline on 4 ranks.
"""

from __future__ import annotations

import numpy as np

from repro.bench import e1
from repro.core import Box


def test_table1_parameters_match_paper():
    assert e1.e1_matches_table1()


def test_figure1_panel_b_mapping():
    mapping = e1.rank0_mapping()
    # Rank 0 sends its row 0 halves to ranks 0/1, row 4 halves to 2/3 ...
    assert mapping["sends"][(0, 1)] == Box((4, 0), (4, 1))
    assert mapping["sends"][(1, 3)] == Box((4, 4), (4, 1))
    # ... and receives one row slice from every rank's first chunk.
    assert mapping["recvs"][(0, 3)] == Box((0, 3), (4, 1))


def test_e1_end_to_end():
    quadrants = e1.run_e1()
    g = np.arange(64, dtype=np.float32).reshape(8, 8)
    for rank, quadrant in enumerate(quadrants):
        right, bottom = rank % 2, rank // 2
        expect = g[4 * bottom : 4 * bottom + 4, 4 * right : 4 * right + 4]
        assert np.array_equal(quadrant, expect)


def test_report_prints():
    out = e1.report()
    print("\n" + out)
    assert "matches paper Table I: True" in out
    assert "quadrants correct: True" in out
