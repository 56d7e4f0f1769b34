"""End-to-end in-transit pipeline tests (use case 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.intransit import PipelineConfig, run_pipeline
from repro.lbm import LbmConfig, SerialLbm
from repro.viz import render_scalar_field
from tests.conftest import spmd
from tests.jpeg.t81 import decode

LBM = LbmConfig(nx=32, ny=16)


def make_config(**overrides):
    defaults = dict(lbm=LBM, m=4, n=2, steps=20, output_every=10, keep_frames=True)
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestConfig:
    def test_frames(self):
        assert make_config().n_frames == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            make_config(steps=15, output_every=10)
        with pytest.raises(ValueError):
            make_config(steps=0)


class TestPipeline:
    def test_roles_and_counts(self):
        config = make_config()

        def fn(comm):
            return run_pipeline(comm, config)

        results = spmd(6, fn)
        roles = [r.role for r in results]
        assert roles == ["sim"] * 4 + ["analysis_root", "analysis"]
        root = results[4]
        assert root.frames == 2
        assert root.raw_bytes == 2 * 32 * 16 * 4
        assert 0 < root.jpeg_bytes < root.raw_bytes
        assert 0 < root.data_reduction < 1
        assert len(root.frames_rendered) == 2
        assert root.frames_rendered[0].shape == (16, 32, 3)

    def test_wrong_world_size(self):
        config = make_config()

        def fn(comm):
            with pytest.raises(ValueError, match="world has"):
                run_pipeline(comm, config)

        spmd(3, fn)

    def test_frames_match_serial_reference(self):
        """The streamed + DDR-redistributed + rendered frame must equal the
        frame rendered directly from a serial simulation."""
        config = make_config(m=3, n=2, steps=30, output_every=15)

        serial = SerialLbm(LBM)
        expected_frames = []
        for _ in range(config.n_frames):
            serial.step(config.output_every)
            curl = serial.vorticity().astype(np.float32)
            expected_frames.append(
                render_scalar_field(
                    curl, vmin=-config.vorticity_limit, vmax=config.vorticity_limit
                )
            )

        def fn(comm):
            return run_pipeline(comm, config)

        results = spmd(5, fn)
        root = next(r for r in results if r.role == "analysis_root")
        for rendered, expected in zip(root.frames_rendered, expected_frames):
            assert np.array_equal(rendered, expected)

    def test_nonuniform_mapping(self):
        """M not divisible by N (the paper's 10-to-4 point)."""
        config = make_config(m=5, n=2, steps=10, output_every=10)

        def fn(comm):
            return run_pipeline(comm, config)

        results = spmd(7, fn)
        root = next(r for r in results if r.role == "analysis_root")
        assert root.frames == 1

    def test_jpeg_frames_written_and_decodable(self, tmp_path):
        config = make_config(save_dir=tmp_path / "frames", save_raw=True)

        def fn(comm):
            return run_pipeline(comm, config)

        spmd(6, fn)
        jpgs = sorted((tmp_path / "frames").glob("*.jpg"))
        raws = sorted((tmp_path / "frames").glob("*.raw"))
        assert len(jpgs) == 2 and len(raws) == 2
        image = decode(jpgs[0].read_bytes())
        assert image.shape == (16, 32, 3)
        assert raws[0].stat().st_size == 32 * 16 * 4

    def test_raw_file_matches_serial_field(self, tmp_path):
        config = make_config(m=4, n=2, steps=10, output_every=10,
                             save_dir=tmp_path / "o", save_raw=True)

        def fn(comm):
            return run_pipeline(comm, config)

        spmd(6, fn)
        serial = SerialLbm(LBM)
        serial.step(10)
        expected = serial.vorticity().astype(np.float32)
        from tests.oracles import read_raw

        raw = read_raw(tmp_path / "o" / "frame_00000.raw", (16, 32))
        assert np.array_equal(raw, expected)

    def test_data_reduction_substantial(self):
        """Even at toy scale the JPEG path must save the bulk of the bytes
        (Table IV reports >= 99% at production scale)."""
        config = make_config(lbm=LbmConfig(nx=128, ny=64), m=4, n=2,
                             steps=40, output_every=20)

        def fn(comm):
            return run_pipeline(comm, config)

        results = spmd(6, fn)
        root = next(r for r in results if r.role == "analysis_root")
        assert root.data_reduction > 0.80


class TestModeParity:
    def test_fault_free_modes_agree_bitwise(self):
        """Plain, shrink-armed and scheduled-resize runs are one frame loop:
        with no fault injected, two variables come out identical."""
        base = dict(m=3, n=2, steps=30, output_every=10,
                    variables=("vorticity", "density"))
        modes = {
            "plain": {},
            "shrink": dict(on_rank_loss="shrink"),
            "resize": dict(resize_schedule=((1, 2, 2),)),
        }
        roots = {}
        for mode, extra in modes.items():
            config = make_config(**base, **extra)
            results = spmd(5, lambda comm: run_pipeline(comm, config))
            roots[mode] = next(r for r in results if r.role == "analysis_root")
        plain = roots["plain"]
        assert len(plain.frames_rendered) == 3
        for mode in ("shrink", "resize"):
            root = roots[mode]
            assert root.jpeg_bytes == plain.jpeg_bytes, mode
            assert root.jpeg_bytes_by_variable == plain.jpeg_bytes_by_variable, mode
            assert len(root.frames_rendered) == len(plain.frames_rendered), mode
            for ours, theirs in zip(root.frames_rendered, plain.frames_rendered):
                assert np.array_equal(ours, theirs), mode
