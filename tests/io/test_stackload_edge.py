"""Edge cases of the DDR stack loader."""

from __future__ import annotations

import numpy as np
import pytest

from repro.imaging import VolumeSpec, tooth_slice, write_stack
from repro.io import Assignment, convert_stack_to_bricks, load_stack_ddr, load_stack_no_ddr
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


class TestGapInNumbering:
    LOADS = {
        "consecutive": lambda comm, stack, tmp: load_stack_ddr(
            comm, stack, (1, 1, 2), Assignment.CONSECUTIVE),
        "roundrobin": lambda comm, stack, tmp: load_stack_ddr(
            comm, stack, (1, 1, 2), Assignment.ROUND_ROBIN),
        "noddr": lambda comm, stack, tmp: load_stack_no_ddr(comm, stack, (1, 1, 2)),
        "convert": lambda comm, stack, tmp: convert_stack_to_bricks(
            comm, stack, tmp / "bricks.bin", brick=4),
    }

    @pytest.mark.parametrize("load", sorted(LOADS))
    def test_every_rank_names_the_missing_slice(self, tmp_path, load):
        """Slices 0-3 and 5-8: every rank raises the same typed error before
        any collective (a rank reading slice 4 used to leave its peer in the
        set-up allgather until the deadlock timeout)."""
        spec = VolumeSpec(12, 8, 9, np.uint8)
        stack = write_stack(tmp_path / "s", 9, lambda z: tooth_slice(spec, z))
        stack.slice_path(4).unlink()

        def fn(comm):
            try:
                self.LOADS[load](comm, stack, tmp_path)
            except Exception as exc:  # each rank reports what it saw
                return type(exc).__name__, str(exc)
            return None

        outcomes = spmd(2, fn, deadlock_timeout=2.0)
        assert outcomes[0] == outcomes[1]
        kind, text = outcomes[0]
        assert kind == "FileNotFoundError" and "slice 4 missing" in text
