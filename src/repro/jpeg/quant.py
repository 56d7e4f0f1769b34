"""JPEG quantization tables (Annex K) and IJG-style quality scaling."""

from __future__ import annotations

import numpy as np

#: ITU-T T.81 Table K.1 — luminance, in natural (row-major) order.
BASE_LUMINANCE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.int32,
)

#: ITU-T T.81 Table K.2 — chrominance.
BASE_CHROMINANCE = np.array(
    [
        [17, 18, 24, 47, 99, 99, 99, 99],
        [18, 21, 26, 66, 99, 99, 99, 99],
        [24, 26, 56, 99, 99, 99, 99, 99],
        [47, 66, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
    ],
    dtype=np.int32,
)


def scale_table(base: np.ndarray, quality: int) -> np.ndarray:
    """IJG quality scaling: 1 (worst) .. 100 (best); 50 = the base table."""
    if not (1 <= quality <= 100):
        raise ValueError(f"quality must be in [1, 100], got {quality}")
    if quality < 50:
        scale = 5000 // quality
    else:
        scale = 200 - 2 * quality
    table = (base * scale + 50) // 100
    return np.clip(table, 1, 255).astype(np.int32)

