"""Codec edge shapes: dimensions that are not MCU multiples.

The serving edge encodes arbitrary viewer ROIs — including 1-px crops and
mip-subsampled frames whose dimensions are nothing like a multiple of the
8x8 block (or the 16x16 MCU that 4:2:0 subsampling implies).  These tests
pin the padding/cropping contract: the decoder must return exactly the
requested shape, and round-trip error must stay bounded at every quality.
"""

import numpy as np
import pytest

from repro.jpeg.encoder import encode_gray, encode_rgb
from tests.jpeg.t81 import decode

# Shapes straddling block (8) and MCU (16) boundaries, down to a single pixel.
EDGE_SHAPES = [
    (1, 1),
    (1, 7),
    (7, 1),
    (3, 5),
    (8, 8),
    (9, 17),
    (15, 16),
    (16, 15),
    (17, 31),
    (33, 9),
]


def _gradient(shape):
    h, w = shape
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    return ((xs * 255 // max(w - 1, 1) + ys * 13) % 256).astype(np.uint8)


@pytest.mark.parametrize("shape", EDGE_SHAPES)
def test_gray_round_trip_returns_exact_shape(shape):
    image = _gradient(shape)
    decoded = decode(encode_gray(image, quality=90))
    assert decoded.shape == shape
    assert decoded.dtype == np.uint8
    # High quality: padding must not bleed into the real pixels.
    assert np.max(np.abs(decoded.astype(int) - image.astype(int))) <= 24


@pytest.mark.parametrize("shape", EDGE_SHAPES)
@pytest.mark.parametrize("subsampling", ["444", "420"])
def test_rgb_round_trip_returns_exact_shape(shape, subsampling):
    h, w = shape
    image = np.stack(
        [_gradient(shape), _gradient(shape)[::-1], np.full(shape, 128, np.uint8)],
        axis=-1,
    )
    decoded = decode(encode_rgb(image, quality=90, subsampling=subsampling))
    assert decoded.shape == (h, w, 3)
    assert decoded.dtype == np.uint8


@pytest.mark.parametrize("quality", [25, 50, 75, 95])
def test_quality_sweep_on_odd_shape(quality):
    image = _gradient((17, 31))
    blob = encode_gray(image, quality=quality)
    decoded = decode(blob)
    assert decoded.shape == (17, 31)
    error = np.mean(np.abs(decoded.astype(int) - image.astype(int)))
    # Quantization gets coarser as quality drops, but the image must stay
    # recognizably the same gradient.
    assert error <= {25: 40.0, 50: 30.0, 75: 20.0, 95: 10.0}[quality]


def test_one_pixel_images_survive_both_paths():
    gray = np.array([[200]], dtype=np.uint8)
    assert decode(encode_gray(gray, quality=95)).shape == (1, 1)
    rgb = np.array([[[250, 10, 120]]], dtype=np.uint8)
    for subsampling in ("444", "420"):
        decoded = decode(encode_rgb(rgb, quality=95, subsampling=subsampling))
        assert decoded.shape == (1, 1, 3)
        assert np.max(np.abs(decoded.astype(int) - rgb.astype(int))) <= 32


def test_single_row_and_column_strips():
    row = _gradient((1, 37))
    col = _gradient((37, 1))
    assert decode(encode_gray(row, quality=85)).shape == (1, 37)
    assert decode(encode_gray(col, quality=85)).shape == (37, 1)


def test_flat_field_is_near_lossless_at_any_edge_shape():
    for shape in ((5, 9), (13, 3)):
        image = np.full(shape, 77, dtype=np.uint8)
        decoded = decode(encode_gray(image, quality=75))
        assert np.max(np.abs(decoded.astype(int) - 77)) <= 2
