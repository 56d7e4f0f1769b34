"""Raw binary field output — the paper's uncompressed baseline for Table IV.

"Raw data was saved to disk directly from a 4-byte float array."
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def write_raw(path, field: np.ndarray) -> int:
    """Dump a float32 field as flat bytes; returns bytes written."""
    data = np.ascontiguousarray(field, dtype=np.float32)
    payload = data.tobytes()
    Path(path).write_bytes(payload)
    return len(payload)


def raw_frame_bytes(nx: int, ny: int, bytes_per_value: int = 4) -> int:
    """Size of one uncompressed frame (one variable of interest)."""
    return nx * ny * bytes_per_value
