"""Binary PPM (P6) image output — the lossless sibling of the JPEG output path,
used by the examples to dump exact frames."""

from __future__ import annotations

import numpy as np


def write_ppm(path_or_file, image: np.ndarray) -> int:
    """Write an ``(h, w, 3)`` uint8 image as binary PPM; returns bytes written."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError(f"expected (h, w, 3) uint8, got {image.shape} {image.dtype}")
    header = f"P6\n{image.shape[1]} {image.shape[0]}\n255\n".encode()
    payload = header + image.tobytes()
    if hasattr(path_or_file, "write"):
        return path_or_file.write(payload)
    with open(path_or_file, "wb") as handle:
        return handle.write(payload)

