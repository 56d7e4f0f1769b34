"""Restart-marker (DRI/RSTn) support in the JPEG codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jpeg import encode_gray, encode_rgb
from tests.jpeg.t81 import JpegError, _split_restart_segments, decode


def psnr(a, b):
    mse = ((a.astype(np.float64) - b.astype(np.float64)) ** 2).mean()
    return float("inf") if mse == 0 else 10 * np.log10(255.0**2 / mse)


def gradient(h, w):
    ys, xs = np.mgrid[0:h, 0:w]
    return ((np.sin(xs / 11) + np.cos(ys / 9)) * 55 + 128).clip(0, 255).astype(np.uint8)


class TestSplitSegments:
    def test_no_markers_single_segment(self):
        assert _split_restart_segments(b"\x01\x02\x03") == [b"\x01\x02\x03"]

    def test_split_on_rst(self):
        scan = b"\xaa\xbb" + b"\xff\xd0" + b"\xcc" + b"\xff\xd1" + b"\xdd"
        assert _split_restart_segments(scan) == [b"\xaa\xbb", b"\xcc", b"\xdd"]

    def test_stuffed_ff_not_split(self):
        scan = b"\xff\x00\xaa" + b"\xff\xd3" + b"\xff\x00"
        assert _split_restart_segments(scan) == [b"\xff\x00\xaa", b"\xff\x00"]


class TestRestartRoundtrip:
    def test_gray_with_restarts(self):
        image = gradient(64, 80)
        plain = encode_gray(image, quality=85)
        restarted = encode_gray(image, quality=85, restart_interval=4)
        assert b"\xff\xdd" in restarted  # DRI present
        assert any(bytes([0xFF, 0xD0 + i]) in restarted for i in range(8))
        assert b"\xff\xdd" not in plain
        out_plain = decode(plain)
        out_restart = decode(restarted)
        # Restart markers must not change the decoded pixels at all.
        assert np.array_equal(out_plain, out_restart)

    def test_rgb_with_restarts(self):
        gray = gradient(48, 48)
        rgb = np.stack([gray, 255 - gray, np.roll(gray, 7, 1)], axis=-1)
        blob = encode_rgb(rgb, quality=85, restart_interval=2)
        out = decode(blob)
        assert psnr(out, rgb) > 28

    def test_interval_of_one(self):
        image = gradient(24, 24)
        blob = encode_gray(image, quality=90, restart_interval=1)
        assert np.array_equal(decode(blob), decode(encode_gray(image, quality=90)))

    def test_interval_larger_than_mcu_count(self):
        """No restart ever fires; stream stays valid."""
        image = gradient(16, 16)  # 4 MCUs
        blob = encode_gray(image, quality=90, restart_interval=100)
        assert decode(blob).shape == (16, 16)

    @given(interval=st.integers(1, 20), seed=st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_property_restarts_are_transparent(self, interval, seed):
        rng = np.random.default_rng(seed)
        h, w = int(rng.integers(8, 48)), int(rng.integers(8, 48))
        image = rng.integers(0, 255, (h, w)).astype(np.uint8)
        plain = decode(encode_gray(image, quality=70))
        restarted = decode(encode_gray(image, quality=70, restart_interval=interval))
        assert np.array_equal(plain, restarted)

    def test_rst_cycle_wraps_past_eight(self):
        """More than 8 restarts: RST indices wrap D0..D7 and decode fine."""
        image = gradient(8, 8 * 20)  # 20 MCUs in one row
        blob = encode_gray(image, quality=85, restart_interval=2)  # 9 restarts
        assert np.array_equal(decode(blob), decode(encode_gray(image, quality=85)))

    def test_missing_restart_detected(self):
        image = gradient(32, 32)
        blob = bytearray(encode_gray(image, quality=85, restart_interval=1))
        # Remove the first RST marker to corrupt the cadence.
        for i in range(len(blob) - 1):
            if blob[i] == 0xFF and 0xD0 <= blob[i + 1] <= 0xD7:
                del blob[i : i + 2]
                break
        with pytest.raises((JpegError, EOFError, ValueError)):
            decode(bytes(blob))
