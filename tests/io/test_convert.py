"""Parallel stack -> bricks conversion (the ParaView-motivation workflow)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Box
from repro.imaging import BrickedVolume, VolumeSpec, tooth_slice, write_stack
from repro.io import Assignment, brick_layer_ranges, convert_stack_to_bricks
from tests.conftest import spmd
from tests.oracles import read_volume


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    spec = VolumeSpec(24, 16, 12, np.uint16)
    directory = tmp_path_factory.mktemp("conv")
    tiff_stack = write_stack(directory / "s", 12, lambda z: tooth_slice(spec, z))
    return tiff_stack, spec


class TestLayerRanges:
    def test_partition(self):
        pieces = [brick_layer_ranges(7, 3, r) for r in range(3)]
        assert pieces[0][0] == 0 and pieces[-1][1] == 7
        for (_, a), (b, _) in zip(pieces, pieces[1:]):
            assert a == b

    def test_more_ranks_than_layers(self):
        pieces = [brick_layer_ranges(2, 5, r) for r in range(5)]
        assert pieces[0] == (0, 1)
        assert pieces[1] == (1, 2)
        assert all(lo == hi for lo, hi in pieces[2:])  # empty


class TestConversion:
    @pytest.mark.parametrize("nprocs", [1, 3, 4])
    @pytest.mark.parametrize("strategy", [Assignment.CONSECUTIVE, Assignment.ROUND_ROBIN])
    def test_bricked_equals_stack(self, stack, tmp_path, nprocs, strategy):
        tiff_stack, _ = stack
        out = tmp_path / f"v_{nprocs}_{strategy.value}.bricks"

        def fn(comm):
            timers = convert_stack_to_bricks(
                comm, tiff_stack, out, brick=5, strategy=strategy
            )
            return timers["read"] >= 0

        assert all(spmd(nprocs, fn))

        reference = read_volume(tiff_stack)  # (z, y, x)
        volume = BrickedVolume(out)
        assert volume.header.dims == (24, 16, 12)
        whole = volume.read_region(Box((0, 0, 0), (24, 16, 12)))
        assert np.array_equal(whole, reference)

    def test_random_block_access_after_conversion(self, stack, tmp_path):
        tiff_stack, _ = stack
        out = tmp_path / "v.bricks"

        def fn(comm):
            convert_stack_to_bricks(comm, tiff_stack, out, brick=4)

        spmd(4, fn)
        reference = read_volume(tiff_stack)
        volume = BrickedVolume(out)
        region = Box((5, 3, 2), (10, 8, 7))
        got = volume.read_region(region)
        assert np.array_equal(got, reference[2:9, 3:11, 5:15])
        # The point of the format: a small region touches few bricks ...
        assert volume.bricks_touched(region) < volume.header.n_bricks
        # ... whereas the TIFF stack would decode 7 whole slices.

    def test_more_ranks_than_brick_layers(self, stack, tmp_path):
        """Extra ranks contribute reads but write no bricks."""
        tiff_stack, _ = stack
        out = tmp_path / "v2.bricks"

        def fn(comm):
            convert_stack_to_bricks(comm, tiff_stack, out, brick=6)  # gz = 2

        spmd(5, fn)
        volume = BrickedVolume(out)
        reference = read_volume(tiff_stack)
        assert np.array_equal(
            volume.read_region(Box((0, 0, 0), (24, 16, 12))), reference
        )
