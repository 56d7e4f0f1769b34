"""JFIF color conversion: RGB -> YCbCr (BT.601 full range) and 4:2:0 subsampling."""

from __future__ import annotations

import numpy as np

_FORWARD = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.168736, -0.331264, 0.5],
        [0.5, -0.418688, -0.081312],
    ]
)

#: Pixels per gemm: OpenBLAS stays single-threaded while M * N * K <= 4 * 65536; one
#: gemm per frame would wake its thread pool, which spins against the caller's threads.
_BAND = 8192


def ycbcr_planes(rgb: np.ndarray) -> np.ndarray:
    """``(h, w, 3)`` uint8 RGB -> ``(3, h, w)`` float Y, Cb, Cr: bit for bit
    ``rgb @ _FORWARD.T`` (per-plane ufuncs are not: dgemm fuses multiply-adds)."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected (h, w, 3), got {rgb.shape}")
    if rgb.shape[1] == 1:  # numpy multiplies one-pixel rows by gemv, which rounds otherwise
        return np.moveaxis(rgb.astype(np.float64) @ _FORWARD.T + [0.0, 128.0, 128.0], -1, 0)
    pixels = rgb.reshape(-1, 3)
    out = np.empty((3, pixels.shape[0]))
    for start in range(0, pixels.shape[0], _BAND):
        band = pixels[start : start + _BAND].astype(np.float64)
        np.matmul(_FORWARD, band.T, out=out[:, start : start + _BAND])
    out[1:] += 128.0
    return out.reshape(3, *rgb.shape[:2])


def subsample_420(channel: np.ndarray) -> np.ndarray:
    """2x2 box average, added in ``mean``'s order (pads odd dimensions by edge)."""
    channel = np.asarray(channel, dtype=np.float64)
    h, w = channel.shape
    if h % 2 or w % 2:
        channel = np.pad(channel, ((0, h % 2), (0, w % 2)), mode="edge")
    a, b, c, d = (channel[i::2, j::2] for i in (0, 1) for j in (0, 1))
    # mean adds a lone column's four samples in one run, wider planes in pairs
    out = a + b + c + d if w <= 2 else (a + b) + (c + d)
    return np.multiply(out, 0.25, out=out)

