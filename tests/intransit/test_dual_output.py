"""Dual-frequency output (the paper's §IV-B closing proposal).

"We could still output raw data every 100 iterations, but additionally
stream data every 10 iterations for visual analysis.  This would increase
temporal resolution 10-fold, but only marginally increase data storage
size."
"""

from __future__ import annotations

import numpy as np
from repro.intransit import PipelineConfig, run_pipeline
from repro.lbm import LbmConfig
from tests.conftest import spmd

LBM = LbmConfig(nx=64, ny=32)


def run(config: PipelineConfig):
    results = spmd(config.m + config.n, lambda comm: run_pipeline(comm, config))
    return next(r for r in results if r.role == "analysis_root")


class TestDualOutput:
    def test_coarse_raw_cadence_counted(self):
        config = PipelineConfig(
            lbm=LBM, m=2, n=1, steps=100, output_every=10, raw_every_frames=5
        )
        root = run(config)
        assert root.frames == 10
        # Frames 0 and 5 are raw frames.
        assert root.dual_raw_bytes == 2 * 64 * 32 * 4
        assert root.dual_total_bytes == root.dual_raw_bytes + root.jpeg_bytes

    def test_marginal_overhead_claim(self):
        """10x temporal resolution for a small storage increase: the dual
        total must be far below raw-at-every-frame."""
        config = PipelineConfig(
            lbm=LbmConfig(nx=128, ny=64), m=4, n=2,
            steps=200, output_every=10, raw_every_frames=10,
        )
        root = run(config)
        assert root.frames == 20
        assert root.dual_raw_bytes == 2 * 128 * 64 * 4  # frames 0 and 10
        # Dual output costs a fraction of what raw-every-frame would:
        assert root.dual_total_bytes < 0.35 * root.raw_bytes
        # ... and its overhead over raw-only is bounded (paper: "marginal").
        assert root.dual_overhead < 2.0

    def test_disabled_by_default(self):
        config = PipelineConfig(lbm=LBM, m=2, n=1, steps=20, output_every=10)
        root = run(config)
        assert root.dual_raw_bytes == 0
        assert root.dual_overhead == 0.0

    def test_raw_files_only_on_coarse_frames(self, tmp_path):
        config = PipelineConfig(
            lbm=LBM, m=2, n=2, steps=60, output_every=10,
            raw_every_frames=3, save_dir=tmp_path / "dual", save_raw=True,
        )
        root = run(config)
        jpgs = sorted((tmp_path / "dual").glob("*.jpg"))
        raws = sorted((tmp_path / "dual").glob("*.raw"))
        assert len(jpgs) == 6  # every frame
        assert [p.stem for p in raws] == ["frame_00000", "frame_00003"]
        assert root.dual_raw_bytes == 2 * 64 * 32 * 4

    def test_raw_dump_content_correct(self, tmp_path):
        from tests.oracles import read_raw
        from repro.lbm import SerialLbm

        config = PipelineConfig(
            lbm=LBM, m=2, n=1, steps=20, output_every=10,
            raw_every_frames=2, save_dir=tmp_path / "o", save_raw=True,
        )
        run(config)
        serial = SerialLbm(LBM)
        serial.step(10)
        expected = serial.vorticity().astype(np.float32)
        got = read_raw(tmp_path / "o" / "frame_00000.raw", (32, 64))
        assert np.array_equal(got, expected)
