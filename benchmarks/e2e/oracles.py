"""Correctness oracles, one per workload.

Each compares the program's output with a reference built independently of
the code path under test: a crop of the seed-generated global array, the
phantom slices that were written to disk, a serial simulation rendered
directly, a frame re-encoded from the hub's own view.  All comparisons are
bitwise.  A failing oracle makes the run report failed operations, exit
non-zero and print no metrics.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core import Box
from repro.jpeg import encode_rgb
from repro.lbm import LbmConfig, SerialLbm
from repro.viz import BLUE_WHITE_RED, render_scalar_field

from inputs import crop


class OracleError(AssertionError):
    """A probe's output differs from its reference."""


def need_buffer_matches(out: np.ndarray, data: np.ndarray, need: Box) -> bool:
    """A rank's need buffer equals the crop of the global array."""
    return np.array_equal(out, crop(data, need))


def brick_matches(block: np.ndarray, box: Box, slices: Sequence[np.ndarray]) -> bool:
    """A loaded brick equals the same region of the phantom slices."""
    z0, depth = box.offset[2], box.dims[2]
    plane = Box(box.offset[:2], box.dims[:2])
    if block.shape != box.np_shape():
        return False
    return all(
        np.array_equal(block[k], crop(slices[z0 + k], plane)) for k in range(depth)
    )


def serial_frames(
    config: LbmConfig, output_every: int, limit: float, count: int
) -> list[np.ndarray]:
    """The first ``count`` frames rendered directly from a serial simulation,
    as ``tests/intransit/test_pipeline.py::test_frames_match_serial_reference``."""
    serial = SerialLbm(config)
    frames = []
    for _ in range(count):
        serial.step(output_every)
        curl = serial.vorticity().astype(np.float32)
        frames.append(render_scalar_field(curl, vmin=-limit, vmax=limit))
    return frames


def frames_match(rendered: Sequence[np.ndarray], expected: Sequence[np.ndarray]) -> bool:
    return len(rendered) >= len(expected) and all(
        np.array_equal(got, want) for got, want in zip(rendered, expected)
    )


def served_jpeg(field: np.ndarray, quality: int) -> bytes:
    """What the hub must serve for a layout whose ``hub.view`` is ``field``."""
    rgb = render_scalar_field(field, BLUE_WHITE_RED, symmetric=True)
    return encode_rgb(np.ascontiguousarray(rgb), quality=quality)


def monotone(indices: Sequence[int]) -> bool:
    return all(a < b for a, b in zip(indices, indices[1:]))


def socket_frames_correct(
    last_jpeg: bytes, indices: Sequence[int], field: np.ndarray, quality: int
) -> bool:
    """The last frame a socket read is byte-equal to a fresh encode of the
    hub's own view, and the socket saw strictly increasing frame indices."""
    return last_jpeg == served_jpeg(field, quality) and monotone(indices)
