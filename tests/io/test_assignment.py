"""File-assignment strategy tests (Table II / III workload geometry)."""

from __future__ import annotations

import pytest

from repro.core import check_send_coverage
from repro.io import (
    Assignment,
    PAPER_STACK,
    StackGeometry,
    all_owned_chunks,
    assigned_images,
    owned_chunks,
)
from repro.volren import grid_boxes

SMALL = StackGeometry(width=64, height=32, n_images=20, bytes_per_pixel=4)


class TestStackGeometry:
    def test_paper_stack_is_128_gib(self):
        assert PAPER_STACK.total_bytes == 128 * 2**30
        assert PAPER_STACK.image_bytes == 32 * 2**20

    def test_volume_dims(self):
        assert SMALL.volume_dims == (64, 32, 20)


class TestAssignedImages:
    def test_round_robin(self):
        assert assigned_images(SMALL, 4, 1, Assignment.ROUND_ROBIN) == [1, 5, 9, 13, 17]

    def test_consecutive(self):
        assert assigned_images(SMALL, 4, 0, Assignment.CONSECUTIVE) == [0, 1, 2, 3, 4]
        assert assigned_images(SMALL, 4, 3, Assignment.CONSECUTIVE) == [15, 16, 17, 18, 19]

    def test_block_cyclic(self):
        imgs = assigned_images(SMALL, 2, 0, Assignment.BLOCK_CYCLIC, block=3)
        assert imgs == [0, 1, 2, 6, 7, 8, 12, 13, 14, 18, 19]

    def test_every_image_read_exactly_once(self):
        for strategy in Assignment:
            seen = []
            for rank in range(4):
                seen.extend(assigned_images(SMALL, 4, rank, strategy, block=3))
            assert sorted(seen) == list(range(20)), strategy

    def test_uneven_round_robin(self):
        # 20 images over 3 ranks: 7, 7, 6.
        counts = [len(assigned_images(SMALL, 3, r, Assignment.ROUND_ROBIN)) for r in range(3)]
        assert counts == [7, 7, 6]

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            assigned_images(SMALL, 4, 4, Assignment.ROUND_ROBIN)

    def test_too_few_images_consecutive(self):
        with pytest.raises(ValueError):
            assigned_images(SMALL, 21, 0, Assignment.CONSECUTIVE)


class TestOwnedChunks:
    def test_consecutive_collapses_to_one_chunk(self):
        for rank in range(4):
            chunks = owned_chunks(SMALL, 4, rank, Assignment.CONSECUTIVE)
            assert len(chunks) == 1
            assert chunks[0].dims == (64, 32, 5)

    def test_round_robin_one_chunk_per_image(self):
        chunks = owned_chunks(SMALL, 4, 0, Assignment.ROUND_ROBIN)
        assert len(chunks) == 5
        assert all(c.dims == (64, 32, 1) for c in chunks)

    def test_block_cyclic_runs(self):
        chunks = owned_chunks(SMALL, 2, 0, Assignment.BLOCK_CYCLIC, block=3)
        # runs: [0-2], [6-8], [12-14], [18-19]
        assert [c.dims[2] for c in chunks] == [3, 3, 3, 2]

    def test_all_chunks_tile_volume(self):
        for strategy in Assignment:
            owns = all_owned_chunks(SMALL, 4, strategy, block=3)
            domain = check_send_coverage(owns)
            assert domain.dims == SMALL.volume_dims


class TestNoDdrReadCount:
    def test_counts_touched_slices(self):
        needs = grid_boxes(SMALL.volume_dims, (2, 2, 2))
        for need in needs:
            assert need.dims[2] == 10  # every slice the block touches is decoded

    def test_paper_no_ddr_read_counts(self):
        """27 procs on the 4096-image stack: each block spans ~1365 slices —
        the whole-image decode waste the paper's intro quantifies."""
        needs = grid_boxes(PAPER_STACK.volume_dims, (3, 3, 3))
        counts = {n.dims[2] for n in needs}
        assert counts == {1365, 1366}
