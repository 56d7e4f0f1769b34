"""Maximum-intensity projection tests (exact distributed equality)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imaging import VolumeSpec, phantom_volume
from repro.volren import composite_distributed_mip, grid_boxes, mip_project
from tests.conftest import spmd


class TestMipProject:
    def test_axis_shapes(self):
        vol = np.zeros((2, 3, 4))
        assert mip_project(vol, "z").shape == (3, 4)
        assert mip_project(vol, "y").shape == (2, 4)
        assert mip_project(vol, "x").shape == (2, 3)

    def test_picks_maximum(self):
        vol = np.zeros((3, 2, 2))
        vol[1, 0, 1] = 7.0
        vol[2, 0, 1] = 3.0
        assert mip_project(vol, "z")[0, 1] == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mip_project(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            mip_project(np.zeros((2, 2, 2)), axis="q")

    @given(seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_property_mip_splits_along_ray(self, seed):
        """max over the whole ray == max of per-segment maxima."""
        rng = np.random.default_rng(seed)
        vol = rng.random((8, 4, 4))
        cut = int(rng.integers(1, 8))
        whole = mip_project(vol, "z")
        split = np.maximum(mip_project(vol[:cut], "z"), mip_project(vol[cut:], "z"))
        assert np.array_equal(whole, split)


class TestDistributedMip:
    @pytest.mark.parametrize("grid", [(2, 2, 2), (1, 1, 4), (4, 2, 1)])
    @pytest.mark.parametrize("axis", ["z", "y", "x"])
    def test_exactly_equals_serial(self, grid, axis):
        spec = VolumeSpec(8, 8, 8, np.float32)
        volume = phantom_volume("brain", spec).astype(np.float64)
        serial = mip_project(volume, axis)
        boxes = grid_boxes((8, 8, 8), grid)
        nprocs = len(boxes)

        def fn(comm):
            box = boxes[comm.rank]
            x0, y0, z0 = box.offset
            w, h, d = box.dims
            block = volume[z0 : z0 + d, y0 : y0 + h, x0 : x0 + w]
            partial = mip_project(block, axis)
            return composite_distributed_mip(comm, box, partial, (8, 8, 8), axis=axis)

        results = spmd(nprocs, fn)
        assert np.array_equal(results[0], serial)
        assert all(r is None for r in results[1:])

    def test_thread_and_process_executors_agree(self):
        dims = (24, 24, 24)
        volume = phantom_volume("brain", VolumeSpec(*dims, np.float32)).astype(np.float64)
        boxes = grid_boxes(dims, (2, 2, 1))

        def fn(comm):
            box = boxes[comm.rank]
            x0, y0, z0 = box.offset
            w, h, d = box.dims
            partial = mip_project(volume[z0 : z0 + d, y0 : y0 + h, x0 : x0 + w], "z")
            return composite_distributed_mip(comm, box, partial, dims, axis="z")

        threads = spmd(4, fn, executor="thread")
        forked = spmd(4, fn, executor="process")
        assert np.array_equal(threads[0], forked[0])
        assert threads[1:] == forked[1:] == [None] * 3

    def test_shape_checked(self):
        from repro.core import Box

        def fn(comm):
            with pytest.raises(ValueError, match="footprint"):
                composite_distributed_mip(
                    comm, Box((0, 0, 0), (4, 4, 4)), np.zeros((2, 2)), (4, 4, 4)
                )

        spmd(1, fn)
