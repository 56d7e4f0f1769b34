"""Synthetic phantom + on-disk stack tests."""

from __future__ import annotations

import os
import re

import numpy as np
import pytest

from repro.imaging import TiffStack, VolumeSpec, tooth_slice, write_stack
from tests.oracles import (
    brain_slice,
    phantom_slice,
    phantom_volume,
    read_volume,
    value_noise_slice,
)


class TestVolumeSpec:
    def test_dtype_normalised(self):
        spec = VolumeSpec(4, 4, 4, "u1")
        assert spec.dtype == np.uint8

    def test_validation(self):
        with pytest.raises(ValueError):
            VolumeSpec(0, 4, 4, np.uint8)


class TestPhantoms:
    SPEC8 = VolumeSpec(64, 48, 32, np.uint8)
    SPEC32 = VolumeSpec(64, 48, 32, np.float32)

    def test_tooth_shape_dtype(self):
        s = tooth_slice(self.SPEC8, 16)
        assert s.shape == (48, 64)
        assert s.dtype == np.uint8

    def test_tooth_float32(self):
        s = tooth_slice(self.SPEC32, 16)
        assert s.dtype == np.float32
        assert 0.0 <= s.min() and s.max() <= 1.0

    def test_tooth_has_structure(self):
        """Enamel (bright), dentin (medium), cavity (dark) all present."""
        s = tooth_slice(self.SPEC32, 16).astype(np.float64)
        inside = s[s > 0]
        assert inside.size > 0
        assert inside.max() > 0.85  # enamel
        assert (s == 0).any()  # background
        assert ((inside > 0.02) & (inside < 0.2)).any()  # pulp/canal

    def test_tooth_deterministic(self):
        a = tooth_slice(self.SPEC8, 10)
        b = tooth_slice(self.SPEC8, 10)
        assert np.array_equal(a, b)

    def test_tooth_varies_with_z(self):
        assert not np.array_equal(tooth_slice(self.SPEC8, 5), tooth_slice(self.SPEC8, 25))

    def test_slice_out_of_range(self):
        with pytest.raises(ValueError):
            tooth_slice(self.SPEC8, 32)
        with pytest.raises(ValueError):
            brain_slice(self.SPEC8, -1)

    def test_brain_shape_and_range(self):
        s = brain_slice(self.SPEC8, 16)
        assert s.shape == (48, 64)
        assert s.max() > 0

    def test_brain_envelope_vanishes_at_corners(self):
        s = brain_slice(self.SPEC32, 16)
        assert s[0, 0] == 0.0 and s[-1, -1] == 0.0

    def test_phantom_dispatch(self):
        assert np.array_equal(
            phantom_slice("tooth", self.SPEC8, 4), tooth_slice(self.SPEC8, 4)
        )
        with pytest.raises(ValueError, match="unknown phantom"):
            phantom_slice("femur", self.SPEC8, 0)

    def test_phantom_volume_stacks_slices(self):
        spec = VolumeSpec(16, 12, 5, np.uint8)
        vol = phantom_volume("tooth", spec)
        assert vol.shape == (5, 12, 16)
        assert np.array_equal(vol[2], tooth_slice(spec, 2))


class TestValueNoise:
    SPEC = VolumeSpec(32, 32, 32, np.float32)

    def test_range(self):
        n = value_noise_slice(self.SPEC, 7, scale=8)
        assert n.min() >= 0.0 and n.max() <= 1.0

    def test_deterministic_and_seeded(self):
        a = value_noise_slice(self.SPEC, 3, seed=1)
        b = value_noise_slice(self.SPEC, 3, seed=1)
        c = value_noise_slice(self.SPEC, 3, seed=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_smooth_in_z(self):
        """Adjacent slices must correlate (trilinear continuity)."""
        a = value_noise_slice(self.SPEC, 10, scale=8)
        b = value_noise_slice(self.SPEC, 11, scale=8)
        far = value_noise_slice(self.SPEC, 26, scale=8)
        near_diff = np.abs(a - b).mean()
        far_diff = np.abs(a - far).mean()
        assert near_diff < far_diff


class TestStack:
    def test_write_read_roundtrip(self, tmp_path):
        spec = VolumeSpec(24, 16, 6, np.uint16)
        stack = write_stack(tmp_path / "s", 6, lambda z: tooth_slice(spec, z))
        assert len(stack) == 6
        assert stack.indices() == list(range(6))
        vol = read_volume(stack)
        assert vol.shape == (6, 16, 24)
        assert np.array_equal(vol[3], tooth_slice(spec, 3))

    def test_read_single_slice(self, tmp_path):
        spec = VolumeSpec(8, 8, 3, np.uint8)
        stack = write_stack(tmp_path / "s", 3, lambda z: brain_slice(spec, z))
        assert np.array_equal(stack.read_slice(1), brain_slice(spec, 1))

    def test_missing_stack(self, tmp_path):
        stack = TiffStack(tmp_path)
        with pytest.raises(FileNotFoundError):
            read_volume(stack)

    def test_gap_detected(self, tmp_path):
        spec = VolumeSpec(8, 8, 3, np.uint8)
        stack = write_stack(tmp_path / "s", 3, lambda z: brain_slice(spec, z))
        stack.slice_path(1).unlink()
        with pytest.raises(ValueError, match="gaps"):
            read_volume(stack)

    def test_stack_nbytes(self, tmp_path):
        spec = VolumeSpec(8, 8, 2, np.uint8)
        stack = write_stack(tmp_path / "s", 2, lambda z: tooth_slice(spec, z))
        nbytes = sum(stack.slice_path(z).stat().st_size for z in stack.indices())
        assert nbytes > 2 * 64  # at least the pixel data
        assert nbytes == sum(p.stat().st_size for p in (tmp_path / "s").iterdir())

    def test_foreign_files_ignored(self, tmp_path):
        spec = VolumeSpec(8, 8, 2, np.uint8)
        stack = write_stack(tmp_path / "s", 2, lambda z: tooth_slice(spec, z))
        (tmp_path / "s" / "notes.txt").write_text("hi")
        assert stack.indices() == [0, 1]

    def test_indices_accept_exactly_the_slice_names(self, tmp_path):
        """One search over the listing accepts what matching each name against
        ``^slice_(\\d{5})\\.tif$`` does — a trailing newline and non-ASCII
        decimal digits included — and no near miss."""
        names = [
            "slice_00003.tif", "slice_00001.tif", "slice_00002.tif\n", "slice_0000٤.tif",
            "slice_0001.tif", "slice_000005.tif", "slice_00006.tiff", "slice_00007.TIF",
            "xslice_00008.tif", "slice_00009.tif\n\n", "slice_00010.tif.bak", "slice_0001a.tif",
            "slice-00011.tif", "slice_00012tif", "\nslice_00013.tif", "slice_00014.tif ",
            "slice_²0015.tif", "slice_00016.tif\r",
        ]
        for name in names:
            (tmp_path / name).write_bytes(b"")
        rule = re.compile(r"^slice_(\d{5})\.tif$")
        expected = sorted(int(m.group(1)) for m in map(rule.match, os.listdir(tmp_path)) if m)
        assert expected == [1, 2, 3, 4]
        assert TiffStack(tmp_path).indices() == expected
