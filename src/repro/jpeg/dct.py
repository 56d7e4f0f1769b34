"""8x8 block DCT and zig-zag ordering for JPEG."""

from __future__ import annotations

import numpy as np
from scipy.fft import dctn

BLOCK = 8

#: Zig-zag scan order: ZIGZAG[k] = (row, col) of the k-th coefficient.
def _build_zigzag() -> np.ndarray:
    order = sorted(
        ((r, c) for r in range(BLOCK) for c in range(BLOCK)),
        key=lambda rc: (rc[0] + rc[1], rc[1] if (rc[0] + rc[1]) % 2 == 0 else rc[0]),
    )
    return np.array(order, dtype=np.int64)


ZIGZAG = _build_zigzag()
#: Flat index (row*8+col) of each zig-zag position.
ZIGZAG_FLAT = ZIGZAG[:, 0] * BLOCK + ZIGZAG[:, 1]


def forward_dct(blocks: np.ndarray) -> np.ndarray:
    """Type-II orthonormal 2-D DCT over the last two axes (8x8 blocks)."""
    return dctn(blocks, type=2, norm="ortho", axes=(-2, -1))


def to_zigzag(block: np.ndarray) -> np.ndarray:
    """Flatten one or more 8x8 blocks in zig-zag order (last axis = 64)."""
    flat = np.asarray(block).reshape(*block.shape[:-2], 64)
    return flat[..., ZIGZAG_FLAT]

