"""Edge cases of the DDR stack loader."""

from __future__ import annotations

import numpy as np
import pytest

from repro.imaging import VolumeSpec, tooth_slice, write_stack
from repro.io import Assignment, load_stack_ddr
from tests.conftest import spmd
from tests.oracles import read_volume


@pytest.fixture(scope="module")
def tiny_stack(tmp_path_factory):
    spec = VolumeSpec(12, 8, 6, np.uint8)
    directory = tmp_path_factory.mktemp("tiny")
    return write_stack(directory / "s", 6, lambda z: tooth_slice(spec, z)), spec


class TestMoreRanksThanImages:
    def test_round_robin_with_idle_readers(self, tiny_stack):
        """8 ranks, 6 images: two ranks own no slices but still need blocks
        (the `dtype is None` fallback path)."""
        stack, _ = tiny_stack
        reference = read_volume(stack)

        def fn(comm):
            block = load_stack_ddr(comm, stack, (2, 2, 2), Assignment.ROUND_ROBIN)
            x0, y0, z0 = block.box.offset
            w, h, d = block.box.dims
            expect = reference[z0 : z0 + d, y0 : y0 + h, x0 : x0 + w]
            assert np.array_equal(block.data, expect)
            return True

        assert all(spmd(8, fn))

    def test_consecutive_rejects_too_many_ranks(self, tiny_stack):
        stack, _ = tiny_stack

        def fn(comm):
            with pytest.raises(ValueError, match="consecutively"):
                load_stack_ddr(comm, stack, (2, 2, 2), Assignment.CONSECUTIVE)

        spmd(8, fn)


class TestDegenerateGrids:
    def test_single_rank_whole_volume(self, tiny_stack):
        stack, _ = tiny_stack
        reference = read_volume(stack)

        def fn(comm):
            block = load_stack_ddr(comm, stack, (1, 1, 1), Assignment.CONSECUTIVE)
            assert np.array_equal(block.data, reference)
            return True

        assert all(spmd(1, fn))

    def test_z_only_decomposition_is_pure_local(self, tiny_stack):
        """Grid (1, 1, P) with consecutive assignment: every rank's need is
        exactly what it read — all traffic is self-copies."""
        stack, _ = tiny_stack

        def fn(comm):
            block = load_stack_ddr(comm, stack, (1, 1, 3), Assignment.CONSECUTIVE)
            return block.box.dims

        dims = spmd(3, fn)
        assert all(d == (12, 8, 2) for d in dims)
