"""JPEG codec tests: DCT/quant units and full encode-decode loops."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jpeg import (
    BASE_CHROMINANCE,
    BASE_LUMINANCE,
    encode_gray,
    encode_rgb,
    scale_table,
    subsample_420,
)
from repro.jpeg.dct import ZIGZAG_FLAT, forward_dct, to_zigzag
from tests.jpeg.t81 import (
    JpegError,
    blockify,
    decode,
    from_zigzag,
    inverse_dct,
    rgb_to_ycbcr,
    unblockify,
    upsample_420,
    ycbcr_to_rgb,
)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = ((a.astype(np.float64) - b.astype(np.float64)) ** 2).mean()
    return float("inf") if mse == 0 else 10 * np.log10(255.0**2 / mse)


def smooth_gray(h: int, w: int) -> np.ndarray:
    ys, xs = np.mgrid[0:h, 0:w]
    return ((np.sin(xs / 17) + np.cos(ys / 13)) * 55 + 128).clip(0, 255).astype(np.uint8)


class TestDct:
    def test_zigzag_prefix(self):
        # First entries of the standard zig-zag: 0, 1, 8, 16, 9, 2, 3, 10 ...
        assert ZIGZAG_FLAT[:8].tolist() == [0, 1, 8, 16, 9, 2, 3, 10]

    def test_zigzag_is_permutation(self):
        assert sorted(ZIGZAG_FLAT.tolist()) == list(range(64))

    def test_zigzag_roundtrip(self, rng):
        block = rng.random((8, 8))
        assert np.allclose(from_zigzag(to_zigzag(block)), block)

    def test_dct_roundtrip(self, rng):
        blocks = rng.random((5, 8, 8)) * 255
        assert np.allclose(inverse_dct(forward_dct(blocks)), blocks)

    def test_dct_dc_of_constant(self):
        block = np.full((8, 8), 64.0)
        coeffs = forward_dct(block)
        assert coeffs[0, 0] == pytest.approx(64.0 * 8)  # ortho norm: mean * 8
        assert np.allclose(coeffs.reshape(-1)[1:], 0.0)

    def test_blockify_roundtrip(self, rng):
        channel = rng.random((19, 30))
        blocks, bh, bw = blockify(channel)
        assert (bh, bw) == (3, 4)
        assert blocks.shape == (12, 8, 8)
        assert np.allclose(unblockify(blocks, bh, bw, 19, 30), channel)

    def test_blockify_pads_with_edge(self):
        channel = np.arange(9.0).reshape(3, 3)
        blocks, _, _ = blockify(channel)
        assert blocks[0, 2, 7] == channel[2, 2]  # replicated corner


class TestQuantTables:
    def test_quality_50_is_base(self):
        assert np.array_equal(scale_table(BASE_LUMINANCE, 50), BASE_LUMINANCE)

    def test_higher_quality_finer_steps(self):
        q90 = scale_table(BASE_LUMINANCE, 90)
        q10 = scale_table(BASE_LUMINANCE, 10)
        assert (q90 <= BASE_LUMINANCE).all()
        assert (q10 >= BASE_LUMINANCE).all()

    def test_range_clipped(self):
        assert scale_table(BASE_LUMINANCE, 100).min() >= 1
        assert scale_table(BASE_CHROMINANCE, 1).max() <= 255

    def test_quality_validated(self):
        with pytest.raises(ValueError):
            scale_table(BASE_LUMINANCE, 0)
        with pytest.raises(ValueError):
            scale_table(BASE_LUMINANCE, 101)


class TestColor:
    def test_ycbcr_roundtrip(self, rng):
        rgb = rng.integers(0, 255, (16, 16, 3)).astype(np.uint8)
        out = ycbcr_to_rgb(rgb_to_ycbcr(rgb))
        assert np.abs(out.astype(int) - rgb.astype(int)).max() <= 1

    def test_gray_has_no_chroma(self):
        gray_rgb = np.full((4, 4, 3), 77, dtype=np.uint8)
        ycbcr = rgb_to_ycbcr(gray_rgb)
        assert np.allclose(ycbcr[..., 1:], 128.0, atol=1e-9)

    def test_subsample_upsample(self):
        channel = np.arange(16.0).reshape(4, 4)
        down = subsample_420(channel)
        assert down.shape == (2, 2)
        assert down[0, 0] == pytest.approx(channel[:2, :2].mean())
        up = upsample_420(down, 4, 4)
        assert up.shape == (4, 4)

    def test_subsample_odd_dims(self):
        channel = np.ones((5, 7))
        assert subsample_420(channel).shape == (3, 4)


class TestCodecEndToEnd:
    def test_gray_structure(self):
        blob = encode_gray(smooth_gray(40, 56))
        assert blob[:2] == b"\xff\xd8"
        assert blob[-2:] == b"\xff\xd9"
        assert b"JFIF" in blob[:30]

    @pytest.mark.parametrize("shape", [(8, 8), (64, 64), (33, 50), (7, 100), (100, 7)])
    def test_gray_roundtrip_quality(self, shape):
        image = smooth_gray(*shape)
        out = decode(encode_gray(image, quality=90))
        assert out.shape == image.shape
        assert out.dtype == np.uint8
        assert psnr(out, image) > 35

    @pytest.mark.parametrize("subsampling", ["444", "420"])
    def test_rgb_roundtrip_quality(self, subsampling):
        gray = smooth_gray(48, 64)
        rgb = np.stack([gray, np.roll(gray, 5, axis=1), 255 - gray], axis=-1)
        out = decode(encode_rgb(rgb, quality=90, subsampling=subsampling))
        assert out.shape == rgb.shape
        assert psnr(out, rgb) > 28

    def test_constant_image_tiny_file(self):
        image = np.full((256, 256), 128, dtype=np.uint8)
        blob = encode_gray(image)
        assert len(blob) < 2500  # DC-only blocks, mostly EOBs
        assert np.abs(decode(blob).astype(int) - 128).max() <= 1

    def test_quality_monotone_in_size(self):
        image = smooth_gray(128, 128)
        sizes = [len(encode_gray(image, quality=q)) for q in (10, 50, 90)]
        assert sizes[0] < sizes[1] < sizes[2]

    def test_noise_bigger_than_smooth(self, rng):
        noise = rng.integers(0, 255, (64, 64)).astype(np.uint8)
        assert len(encode_gray(noise)) > len(encode_gray(smooth_gray(64, 64)))

    @given(seed=st.integers(0, 100), q=st.integers(30, 95))
    @settings(max_examples=15, deadline=None)
    def test_property_roundtrip_never_crashes(self, seed, q):
        rng = np.random.default_rng(seed)
        h, w = int(rng.integers(8, 40)), int(rng.integers(8, 40))
        image = rng.integers(0, 255, (h, w)).astype(np.uint8)
        out = decode(encode_gray(image, quality=q))
        assert out.shape == (h, w)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            encode_gray(np.zeros((4, 4, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            encode_gray(np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            encode_rgb(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            encode_rgb(np.zeros((4, 4, 3), dtype=np.uint8), subsampling="422")
        # SOF0 / DRI fields are 16 bits and a frame has no empty side.
        gray = np.zeros((16, 16), dtype=np.uint8)
        for restart_interval in (-1, 70000, 2.5):
            with pytest.raises(ValueError, match="restart_interval.*got"):
                encode_gray(gray, restart_interval=restart_interval)
        with pytest.raises(ValueError, match="height.*got 0"):
            encode_gray(np.zeros((0, 16), dtype=np.uint8))
        with pytest.raises(ValueError, match="width.*got 0"):
            encode_rgb(np.zeros((16, 0, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="height.*got 65536"):
            encode_gray(np.zeros((65536, 1), dtype=np.uint8))
        with pytest.raises(ValueError, match="width.*got 65536"):
            encode_rgb(np.zeros((1, 65536, 3), dtype=np.uint8))

    def test_decoder_rejects_garbage(self):
        with pytest.raises(JpegError):
            decode(b"not a jpeg")
        with pytest.raises(JpegError):
            decode(b"\xff\xd8\xff\xd9")  # SOI+EOI, no frame
