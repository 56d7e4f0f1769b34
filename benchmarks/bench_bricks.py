"""Bench: the format-conversion workflow from the paper's introduction.

"ParaView ... requires preprocessing data into a custom format in order to
leverage parallel data distribution.  Our research could be integrated into
such packages to enable on-the-fly conversion."  Here DDR performs that
conversion (slices -> bricks) and we quantify the payoff: random block
reads touch only the bricks they need, while the TIFF stack must decode
whole slices.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Box
from repro.imaging import BrickedVolume, VolumeSpec, tooth_slice, write_stack
from repro.io import convert_stack_to_bricks
from repro.mpisim import run_spmd

DIMS = (64, 48, 32)


@pytest.fixture(scope="module")
def assets(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bricks")
    spec = VolumeSpec(*DIMS, np.uint16)
    stack = write_stack(directory / "stack", DIMS[2], lambda z: tooth_slice(spec, z))
    out = directory / "volume.bricks"
    run_spmd(4, lambda comm: convert_stack_to_bricks(comm, stack, out, brick=16))
    return stack, BrickedVolume(out)


def test_parallel_conversion(tmp_path):
    spec = VolumeSpec(*DIMS, np.uint16)
    stack = write_stack(tmp_path / "s", DIMS[2], lambda z: tooth_slice(spec, z))

    def convert():
        return run_spmd(
            4,
            lambda comm: convert_stack_to_bricks(
                comm, stack, tmp_path / "v.bricks", brick=16
            ),
        )

    timers = convert()
    assert len(timers) == 4


def test_block_read_from_bricks(assets):
    _, volume = assets
    region = Box((8, 8, 8), (16, 16, 16))
    data = volume.read_region(region)
    assert data.shape == (16, 16, 16)
    # One interior 16^3 region = at most 8 bricks of the 4x3x2 grid.
    assert volume.bricks_touched(region) <= 8


def test_block_read_from_slices(assets):
    """The slice-format baseline: decode 16 whole slices, crop."""
    stack, _ = assets

    def read():
        planes = [stack.read_slice(z)[8:24, 8:24] for z in range(8, 24)]
        return np.stack(planes)

    data = read()
    assert data.shape == (16, 16, 16)


def test_formats_agree(assets):
    stack, volume = assets

    def both():
        region = Box((4, 4, 4), (20, 20, 20))
        bricked = volume.read_region(region)
        planes = [stack.read_slice(z)[4:24, 4:24] for z in range(4, 24)]
        return bricked, np.stack(planes)

    bricked, sliced = both()
    assert np.array_equal(bricked, sliced)
