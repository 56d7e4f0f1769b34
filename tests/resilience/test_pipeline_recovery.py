"""Pipeline reconfiguration under rank loss (``on_rank_loss="shrink"``).

Each scenario kills one rank at a deterministic op index and compares the
surviving analysis root's output byte counts against a no-fault baseline:
the LBM is deterministic and replayed frames overwrite their ledger slots,
so a clean recovery reproduces the exact same JPEG bytes.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan, ReliabilityPolicy, fault_plan
from repro.intransit import PipelineConfig, run_pipeline
from repro.lbm import LbmConfig
from repro.mpisim import RankCrashError, RankFailure, run_spmd
from repro.resilience import ReconfigurationError

RELIABILITY = ReliabilityPolicy(op_deadline_s=2.0)


def make_config(**overrides):
    defaults = dict(
        lbm=LbmConfig(nx=32, ny=16),
        m=3,
        n=2,
        steps=20,
        output_every=5,
        frame_drop="stale",
        frame_deadline_s=1.0,
        on_rank_loss="shrink",
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def worker(comm, config):
    return run_pipeline(comm, config)


def run_with_crash(config, crash_rank, crash_at_op):
    plan = FaultPlan(
        seed=0, nranks=5, crash_rank=crash_rank, crash_at_op=crash_at_op
    )
    with fault_plan(plan, RELIABILITY):
        return run_spmd(
            5, worker, config, resilient=True, deadlock_timeout=15.0
        )


def analysis_root(results):
    return next(
        r
        for r in results
        if not isinstance(r, RankCrashError) and r.role == "analysis_root"
    )


@pytest.fixture(scope="module")
def baseline():
    return analysis_root(run_spmd(5, worker, make_config(), deadlock_timeout=15.0))


def assert_recovered_bitwise(results, baseline, crash_rank):
    assert isinstance(results[crash_rank], RankCrashError)
    root = analysis_root(results)
    assert root.recoveries >= 1
    assert root.ranks_lost >= 1
    assert root.frames == baseline.frames
    assert root.jpeg_bytes == baseline.jpeg_bytes
    assert root.frames_dropped == 0
    assert root.frames_stale == 0


class TestSimCrash:
    def test_state_migrates_and_output_is_identical(self, baseline):
        results = run_with_crash(make_config(), crash_rank=1, crash_at_op=40)
        assert_recovered_bitwise(results, baseline, crash_rank=1)

    def test_losing_rank0_sim(self, baseline):
        results = run_with_crash(make_config(), crash_rank=0, crash_at_op=60)
        assert_recovered_bitwise(results, baseline, crash_rank=0)


class TestAnalysisCrash:
    def test_non_root_loss_repartitions_layout(self, baseline):
        results = run_with_crash(make_config(), crash_rank=4, crash_at_op=10)
        assert_recovered_bitwise(results, baseline, crash_rank=4)

    def test_root_loss_rebuilds_ledger_from_frame_zero(self, baseline):
        results = run_with_crash(make_config(), crash_rank=3, crash_at_op=10)
        assert_recovered_bitwise(results, baseline, crash_rank=3)


class TestReconfigurationLimits:
    def test_unservable_survivor_set_raises_typed(self):
        """A late analysis death - after every sim retired - leaves no
        producers to replay from; that must surface as a typed error."""
        with pytest.raises(RankFailure) as info:
            # Rank 4: 4 set-up ops, then stream recv / exchange / gather per
            # frame; op 14 is the last frame's exchange.
            run_with_crash(make_config(), crash_rank=4, crash_at_op=14)
        assert isinstance(info.value.original, ReconfigurationError)

    def test_fail_mode_is_untouched_default(self):
        config = PipelineConfig(
            lbm=LbmConfig(nx=32, ny=16), m=3, n=2, steps=20, output_every=5
        )
        assert config.on_rank_loss == "fail"

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="on_rank_loss"):
            make_config(on_rank_loss="panic")
