"""Bit identity of the encoder's colour front end.

``ycbcr_planes`` multiplies band by band and ``subsample_420`` adds the four
samples itself; both must give exactly the bytes of the expressions they
replaced, kept here verbatim.  Per-plane ufuncs would not (dgemm fuses
multiply-adds), and one gemm over a whole frame would start OpenBLAS's thread
pool, which then spins against the rank threads that encode.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.jpeg import subsample_420
from repro.jpeg.color import _FORWARD, ycbcr_planes
from tests.jpeg.t81 import rgb_to_ycbcr

#: Widths 1 and 2 are where numpy changes its arithmetic (a one-pixel row is a
#: gemv; ``mean`` adds a lone chroma column's four samples in one run);
#: 129 x 257 puts the ends of 8192-pixel bands in the middle of image rows.
SHAPES = ((1, 1), (1, 2), (2, 1), (3, 5), (7, 9), (9, 1), (9, 2), (16, 16), (33, 1), (129, 257))


def reference_ycbcr(rgb):
    out = rgb.astype(np.float64) @ _FORWARD.T
    out[..., 1:] += 128.0
    return out


def reference_subsample(channel):
    h, w = channel.shape
    padded = np.pad(channel, ((0, h % 2), (0, w % 2)), mode="edge")
    return padded.reshape(padded.shape[0] // 2, 2, padded.shape[1] // 2, 2).mean(axis=(1, 3))


def images(shape):
    rng = np.random.default_rng(sum(shape))
    h, w = shape
    ys, xs = np.mgrid[0:h, 0:w]
    return {
        "noise": rng.integers(0, 256, (h, w, 3), dtype=np.uint8),
        "ramp": np.stack([xs + ys, 2 * xs + ys, xs + 3 * ys], axis=-1).astype(np.uint8),
        "extremes": rng.choice(np.array([0, 1, 254, 255], dtype=np.uint8), (h, w, 3)),
    }


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_planes_and_subsampling_equal_the_reference(shape):
    for name, rgb in images(shape).items():
        expected = reference_ycbcr(rgb)
        planes = ycbcr_planes(rgb)
        assert planes.shape == (3, *shape)
        assert np.array_equal(np.moveaxis(planes, 0, -1), expected), name
        assert np.array_equal(rgb_to_ycbcr(rgb), expected), name
        for plane in (1, 2):
            assert np.array_equal(
                subsample_420(planes[plane]), reference_subsample(expected[..., plane])
            ), (name, plane)
        # uint8 samples average in float, as mean does; no uint8 wrap-around
        red = rgb[..., 0]
        assert np.array_equal(subsample_420(red), reference_subsample(red)), name


def test_every_rgb_triple_converts_as_the_reference():
    # All 2**24 triples, one 256 x 256 image per red level.
    g, b = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    for red in range(256):
        rgb = np.stack([np.full_like(g, red), g, b], axis=-1).astype(np.uint8)
        assert np.array_equal(ycbcr_planes(rgb), np.moveaxis(reference_ycbcr(rgb), -1, 0)), red


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="a thread pool cannot spin beside one CPU's caller"
)
def test_encoding_leaves_the_blas_thread_pool_asleep():
    # CPU ticks spent by every thread but the encoding one over 20 frames of
    # 600 x 240: 1 with banded gemms, 40 with one gemm per frame (measured).
    script = textwrap.dedent(
        """
        import os, threading, time
        import numpy as np
        from repro.jpeg import encode_rgb

        def others_ticks():
            me, total = str(threading.get_native_id()), 0
            for tid in os.listdir("/proc/self/task"):
                if tid != me:
                    with open(f"/proc/self/task/{tid}/stat") as stat:
                        fields = stat.read().rsplit(")", 1)[1].split()
                    total += int(fields[11]) + int(fields[12])  # utime + stime
            return total

        frame = np.random.default_rng(0).integers(0, 256, (240, 600, 3), dtype=np.uint8)
        encode_rgb(frame)
        time.sleep(1.0)  # OpenBLAS workers spin a while after starting before they sleep
        before = others_ticks()
        for _ in range(20):
            encode_rgb(frame)
        print(others_ticks() - before)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) <= 5
