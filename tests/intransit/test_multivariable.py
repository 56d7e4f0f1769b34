"""Multi-variable in-transit streaming (paper §IV-B: "many other variables
... could also be streamed and rendered, achieving similar data
compression")."""

from __future__ import annotations

import numpy as np
import pytest

from repro.intransit import PipelineConfig, run_pipeline
from repro.intransit.pipeline import VARIABLES
from repro.lbm import LbmConfig
from tests.conftest import spmd

LBM = LbmConfig(nx=64, ny=32)


def run(config):
    results = spmd(config.m + config.n, lambda comm: run_pipeline(comm, config))
    return next(r for r in results if r.role == "analysis_root")


class TestConfig:
    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError, match="unknown variable"):
            PipelineConfig(lbm=LBM, m=2, n=1, steps=10, output_every=10,
                           variables=("pressure",))

    def test_empty_variables_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            PipelineConfig(lbm=LBM, m=2, n=1, steps=10, output_every=10,
                           variables=())

    def test_registry(self):
        assert set(VARIABLES) == {"vorticity", "density", "speed", "ux", "uy"}


class TestMultiVariablePipeline:
    def test_three_variables_accounted(self):
        config = PipelineConfig(
            lbm=LBM, m=3, n=2, steps=30, output_every=15,
            variables=("vorticity", "density", "speed"), keep_frames=True,
        )
        root = run(config)
        assert root.frames == 2
        assert set(root.jpeg_bytes_by_variable) == {"vorticity", "density", "speed"}
        assert sum(root.jpeg_bytes_by_variable.values()) == root.jpeg_bytes
        # Raw baseline now accounts for all streamed variables.
        assert root.raw_bytes == 2 * 3 * 64 * 32 * 4

    def test_similar_compression_across_variables(self):
        """Every variable must achieve a large reduction (the paper's
        'similar data compression' claim)."""
        config = PipelineConfig(
            lbm=LbmConfig(nx=128, ny=64), m=4, n=2, steps=60, output_every=20,
            variables=("vorticity", "density", "speed", "ux", "uy"),
        )
        root = run(config)
        per_frame_raw = 128 * 64 * 4 * root.frames
        for name, nbytes in root.jpeg_bytes_by_variable.items():
            reduction = 1.0 - nbytes / per_frame_raw
            assert reduction > 0.9, (name, reduction)

    def test_variables_render_differently(self, tmp_path):
        config = PipelineConfig(
            lbm=LBM, m=2, n=2, steps=40, output_every=40,
            variables=("vorticity", "speed"), save_dir=tmp_path / "mv",
        )
        run(config)
        from tests.jpeg.t81 import decode

        vort = decode((tmp_path / "mv" / "frame_00000_vorticity.jpg").read_bytes())
        speed = decode((tmp_path / "mv" / "frame_00000_speed.jpg").read_bytes())
        assert vort.shape == speed.shape
        assert not np.array_equal(vort, speed)

    def test_single_variable_filenames_unchanged(self, tmp_path):
        config = PipelineConfig(
            lbm=LBM, m=2, n=1, steps=10, output_every=10,
            save_dir=tmp_path / "sv",
        )
        run(config)
        assert (tmp_path / "sv" / "frame_00000.jpg").exists()

    def test_fields_match_serial_reference(self):
        """Streamed density/speed must be the serial solver's fields."""
        from repro.lbm import SerialLbm
        from repro.viz import GRAYSCALE, render_scalar_field

        config = PipelineConfig(
            lbm=LBM, m=2, n=1, steps=20, output_every=20,
            variables=("density",), keep_frames=True,
        )
        root = run(config)
        serial = SerialLbm(LBM)
        serial.step(20)
        rho, _, _ = serial.macroscopics()
        expected = render_scalar_field(
            rho.astype(np.float32), GRAYSCALE, 0.9, 1.1, symmetric=False
        )
        assert np.array_equal(root.frames_rendered[0], expected)
