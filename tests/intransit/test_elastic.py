"""Elastic pipeline (a ``resize_schedule``): live role re-splits.

The malleability acceptance for the pipeline layer: a run that resizes
its M-to-N split mid-flight — growing or shrinking either side, parking
leftover pool ranks — must render frames bitwise identical to a
fixed-split run, because the state migration is an exact DDR exchange of
the live simulation state, not a checkpoint restore.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.intransit import PipelineConfig, run_pipeline
from repro.lbm.simulation import LbmConfig
from tests.conftest import spmd

LBM = LbmConfig(nx=48, ny=24)


def _run(config: PipelineConfig):
    return spmd(config.m + config.n, lambda comm: run_pipeline(comm, config))


def _root(results):
    return next(r for r in results if r.role == "analysis_root")


@pytest.fixture(scope="module")
def baseline():
    config = PipelineConfig(
        lbm=LBM, m=3, n=1, steps=12, output_every=2, keep_frames=True
    )
    return _root(_run(config))


class TestElasticPipeline:
    def test_resized_run_is_bitwise_equal_to_fixed(self, baseline):
        """3+1 -> 2+2 at frame 2 -> 3+1 at frame 4: both sides resized,
        every rendered frame bitwise-equal to the never-resized run."""
        config = PipelineConfig(
            lbm=LBM, m=3, n=1, steps=12, output_every=2, keep_frames=True,
            resize_schedule=((2, 2, 2), (4, 3, 1)),
        )
        root = _root(_run(config))
        assert root.resizes == 2
        assert root.frames == baseline.frames
        assert len(root.frames_rendered) == len(baseline.frames_rendered)
        for ours, theirs in zip(root.frames_rendered, baseline.frames_rendered):
            assert np.array_equal(ours, theirs)
        assert root.jpeg_bytes == baseline.jpeg_bytes

    def test_parked_ranks_rejoin(self, baseline):
        """Shrink below the pool size (one rank parks at frame 2), then
        draft the parked rank back at frame 4 — still bitwise."""
        config = PipelineConfig(
            lbm=LBM, m=3, n=1, steps=12, output_every=2, keep_frames=True,
            resize_schedule=((2, 2, 1), (4, 2, 2)),
        )
        results = _run(config)
        root = _root(results)
        for ours, theirs in zip(root.frames_rendered, baseline.frames_rendered):
            assert np.array_equal(ours, theirs)
        # Final split is 2+2: every pool rank ends active again.
        assert sorted(r.role for r in results) == [
            "analysis", "analysis_root", "sim", "sim",
        ]
        assert all(r.resizes == 2 for r in results)

    def test_analysis_only_resize(self, baseline):
        """Only the analysis side changes (3+1 -> 3+... stays m=3)."""
        config = PipelineConfig(
            lbm=LBM, m=4, n=1, steps=12, output_every=2, keep_frames=True,
            resize_schedule=((3, 3, 2),),
        )
        root = _root(_run(config))
        assert root.resizes == 1
        assert root.frames == baseline.frames


class TestConfigValidation:
    def test_empty_schedule_is_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            PipelineConfig(lbm=LBM, m=2, n=1, steps=4, output_every=2,
                           resize_schedule=())

    def test_frames_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PipelineConfig(
                lbm=LBM, m=3, n=1, steps=8, output_every=2,
                resize_schedule=((2, 2, 1), (2, 3, 1)),
            )

    @pytest.mark.parametrize("frame", [2, 5])
    def test_frame_past_the_run_is_rejected(self, frame):
        """A 2-frame run has frames 0 and 1: a resize at frame 2 or later
        would never happen, and ``resizes`` would quietly stay 0."""
        with pytest.raises(ValueError, match="never reached"):
            PipelineConfig(
                lbm=LBM, m=3, n=1, steps=4, output_every=2,
                resize_schedule=((frame, 2, 1),),
            )

    def test_last_frame_is_in_the_run(self):
        """Frame ``n_frames - 1`` is the last one a schedule may name."""
        config = PipelineConfig(
            lbm=LBM, m=3, n=1, steps=4, output_every=2,
            resize_schedule=((1, 2, 1),),
        )
        assert config.n_frames == 2

    def test_split_must_fit_pool(self):
        with pytest.raises(ValueError):
            PipelineConfig(
                lbm=LBM, m=2, n=1, steps=4, output_every=2,
                resize_schedule=((1, 3, 2),),
            )

    def test_m_at_least_n(self):
        with pytest.raises(ValueError):
            PipelineConfig(
                lbm=LBM, m=2, n=2, steps=4, output_every=2,
                resize_schedule=((1, 1, 3),),
            )

    def test_shrink_mode_does_not_compose(self):
        with pytest.raises(ValueError):
            PipelineConfig(
                lbm=LBM, m=3, n=1, steps=4, output_every=2,
                on_rank_loss="shrink", resize_schedule=((1, 2, 1),),
            )
