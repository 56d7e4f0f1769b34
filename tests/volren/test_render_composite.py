"""DVR renderer + distributed compositing tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Box
from repro.imaging import VolumeSpec
from repro.viz import GRAYSCALE
from repro.volren import (
    TOOTH_TF,
    TransferFunction,
    composite_distributed,
    composite_over,
    grid_boxes,
    render_block,
    rgba_to_rgb,
)
from tests.conftest import spmd
from tests.oracles import phantom_volume

LINEAR_TF = TransferFunction(GRAYSCALE, ((0.0, 0.0), (1.0, 0.5)))


class TestTransferFunction:
    def test_opacity_interpolation(self):
        assert LINEAR_TF.opacity(np.array(0.5)) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            TransferFunction(GRAYSCALE, ((0.1, 0.0), (1.0, 1.0)))
        with pytest.raises(ValueError):
            TransferFunction(GRAYSCALE, ((0.0, 0.0), (1.0, 1.5)))

    def test_tooth_tf_air_transparent(self):
        assert TOOTH_TF.opacity(np.array(0.0)) == 0.0
        assert TOOTH_TF.opacity(np.array(1.0)) == pytest.approx(0.9)


class TestRenderBlock:
    def test_empty_volume_transparent(self):
        img = render_block(np.zeros((4, 5, 6)), TOOTH_TF, vmin=0, vmax=1)
        assert img.shape == (5, 6, 4)
        assert np.all(img == 0.0)

    def test_single_opaque_plane(self):
        """One fully-bright slab under a TF with alpha 1 at s=1."""
        tf = TransferFunction(GRAYSCALE, ((0.0, 0.0), (1.0, 1.0)))
        vol = np.zeros((3, 2, 2))
        vol[1] = 1.0
        img = render_block(vol, tf, vmin=0, vmax=1)
        assert np.allclose(img[..., 3], 1.0)
        assert np.allclose(img[..., :3], 1.0)

    def test_alpha_monotone_nondecreasing_in_depth(self):
        rng = np.random.default_rng(3)
        vol = rng.random((6, 4, 4))
        thin = render_block(vol[:2], LINEAR_TF, vmin=0, vmax=1)
        thick = render_block(vol, LINEAR_TF, vmin=0, vmax=1)
        assert np.all(thick[..., 3] >= thin[..., 3] - 1e-12)

    def test_axes(self):
        vol = np.zeros((2, 3, 4))
        assert render_block(vol, LINEAR_TF, axis="z").shape == (3, 4, 4)
        assert render_block(vol, LINEAR_TF, axis="y").shape == (2, 4, 4)
        assert render_block(vol, LINEAR_TF, axis="x").shape == (2, 3, 4)
        with pytest.raises(ValueError):
            render_block(vol, LINEAR_TF, axis="w")

    def test_step_skips_samples(self):
        rng = np.random.default_rng(5)
        vol = rng.random((8, 3, 3))
        full = render_block(vol, LINEAR_TF, vmin=0, vmax=1, step=1)
        coarse = render_block(vol, LINEAR_TF, vmin=0, vmax=1, step=4)
        assert full.shape == coarse.shape
        assert not np.allclose(full, coarse)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            render_block(np.zeros((2, 2)), LINEAR_TF)
        with pytest.raises(ValueError):
            render_block(np.zeros((2, 2, 2)), LINEAR_TF, step=0)

    def test_rgba_to_rgb_background(self):
        accum = np.zeros((1, 1, 4))
        rgb = rgba_to_rgb(accum, background=(1.0, 0.0, 0.0))
        assert rgb[0, 0].tolist() == [255, 0, 0]


class TestCompositeOver:
    def test_opaque_front_hides_back(self):
        front = np.zeros((1, 1, 4))
        front[..., 0] = 1.0
        front[..., 3] = 1.0
        back = np.zeros((1, 1, 4))
        back[..., 1] = 1.0
        back[..., 3] = 1.0
        out = composite_over(front, back)
        assert out[0, 0].tolist() == [1.0, 0.0, 0.0, 1.0]

    def test_transparent_front_passes_back(self):
        front = np.zeros((1, 1, 4))
        back = np.ones((1, 1, 4)) * 0.5
        out = composite_over(front, back)
        assert np.allclose(out, back)

    def test_associativity(self):
        rng = np.random.default_rng(9)
        layers = []
        for _ in range(3):
            a = rng.random((2, 2, 1)) * 0.6
            c = rng.random((2, 2, 3)) * a
            layers.append(np.concatenate([c, a], axis=2))
        left = composite_over(composite_over(layers[0], layers[1]), layers[2])
        right = composite_over(layers[0], composite_over(layers[1], layers[2]))
        assert np.allclose(left, right)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            composite_over(np.zeros((2, 2, 4)), np.zeros((3, 2, 4)))


class TestDistributedEqualsSerial:
    """Block-wise render + depth compositing must equal the single-volume
    render (the 'over' operator is associative along each ray)."""

    @pytest.mark.parametrize("grid", [(2, 2, 2), (1, 2, 4), (2, 1, 1)])
    def test_blockwise_matches_global(self, grid):
        spec = VolumeSpec(12, 8, 8, np.float32)
        volume = phantom_volume("tooth", spec).astype(np.float64)  # (z, y, x)
        serial = render_block(volume, TOOTH_TF, vmin=0, vmax=1)

        nprocs = grid[0] * grid[1] * grid[2]
        boxes = grid_boxes((12, 8, 8), grid)

        def fn(comm):
            box = boxes[comm.rank]
            x0, y0, z0 = box.offset
            w, h, d = box.dims
            block = volume[z0 : z0 + d, y0 : y0 + h, x0 : x0 + w]
            partial = render_block(block, TOOTH_TF, vmin=0, vmax=1)
            return composite_distributed(comm, box, partial, (12, 8, 8), axis="z")

        results = spmd(nprocs, fn)
        frame = results[0]
        assert all(r is None for r in results[1:])
        assert frame.shape == serial.shape
        # Early ray termination may truncate contributions below 1e-3.
        assert np.allclose(frame, serial, atol=5e-3)

    def test_partial_shape_checked(self):
        def fn(comm):
            box = Box((0, 0, 0), (4, 4, 4))
            with pytest.raises(ValueError, match="footprint"):
                composite_distributed(comm, box, np.zeros((2, 2, 4)), (4, 4, 4))

        spmd(1, fn)
