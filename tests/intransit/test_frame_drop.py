"""Degraded-mode streaming: frame-drop policies under an injected drop.

A scripted ``FaultSpec`` silently discards one sim rank's slab for frame 1
(tag-targeted via ``frame_tag``, so no op counting).  Each policy must then
deliver its contract: ``skip`` abandons that frame and keeps rendering,
``stale`` substitutes the last good data so every frame still encodes, and
``fail`` surfaces a typed timeout instead of hanging.

The skip/stale cases run in every driver mode — plain, ``on_rank_loss=
"shrink"`` with no crash, a one-entry ``resize_schedule`` —
and must degrade identically: the armed-but-idle reconfiguration triggers
are the same frame loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, ReliabilityPolicy, fault_plan
from repro.intransit import (
    FRAME_DROP_SKIP,
    FRAME_DROP_STALE,
    PipelineConfig,
    frame_tag,
    run_pipeline,
)
from repro.lbm import LbmConfig
from repro.mpisim import DeadlineError, RankFailure
from repro.obs import tracing
from tests.conftest import spmd, thread_only

LBM = LbmConfig(nx=32, ny=16)

#: Fast recovery knobs, installed with each fault plan, and a frame
#: deadline so a lost frame resolves in well under a second.
POLICY = ReliabilityPolicy(backoff_base_s=0.0001, backoff_cap_s=0.001)
FRAME_DEADLINE_S = 0.3


#: Driver modes the degraded-mode contract must hold in.  The resize entry
#: lands after the dropped frame and moves the root role (2+1 -> 1+1 parks
#: world rank 2), so the ledger hand-off carries a dropped/stale entry.
MODES = {
    "plain": {},
    "shrink": dict(on_rank_loss="shrink"),
    "resize": dict(resize_schedule=((2, 1, 1),)),
}


def _config(**overrides):
    defaults = dict(
        lbm=LBM, m=2, n=1, steps=30, output_every=10, keep_frames=True,
        frame_deadline_s=FRAME_DEADLINE_S,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def _drop_frame_plan(frame_index: int) -> FaultPlan:
    """Sim world-rank 0 loses its slab send for ``frame_index``."""
    return FaultPlan(
        seed=0, nranks=3,
        events=(FaultSpec(kind="drop", rank=0, tag=frame_tag(frame_index)),),
    )


def _run(config):
    def fn(comm):
        return run_pipeline(comm, config)

    return spmd(3, fn, deadlock_timeout=10.0)


def _root(results):
    return next(r for r in results if r.role == "analysis_root")


def _run_with_drop(config):
    with fault_plan(_drop_frame_plan(1), POLICY):
        return _root(_run(config))


@pytest.fixture(scope="module")
def plain_roots():
    """The plain driver's result per policy: the reference for every mode."""
    return {
        policy: _run_with_drop(_config(frame_drop=policy))
        for policy in (FRAME_DROP_SKIP, FRAME_DROP_STALE)
    }


def _assert_same_frames(root, reference):
    assert len(root.frames_rendered) == len(reference.frames_rendered)
    for ours, theirs in zip(root.frames_rendered, reference.frames_rendered):
        assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("mode", MODES)
class TestSkipPolicy:
    def test_dropped_frame_skipped_later_frames_render(self, mode, plain_roots):
        config = _config(frame_drop=FRAME_DROP_SKIP, **MODES[mode])
        root = _run_with_drop(config)
        assert root.frames_dropped == 1
        assert root.frames_stale == 0
        assert root.frames == config.n_frames  # streamed, even if not encoded
        assert len(root.frames_rendered) == config.n_frames - 1
        assert root.jpeg_bytes > 0
        _assert_same_frames(root, plain_roots[FRAME_DROP_SKIP])

    def test_drop_is_traced_and_setup_is_a_phase(self, mode):
        """Every mode emits the spans the plain driver always did."""
        config = _config(frame_drop=FRAME_DROP_SKIP, **MODES[mode])
        with tracing() as tracer:
            _run_with_drop(config)
        names = {r.name for r in tracer.records()}
        assert {"fault.frame_drop", "phase.ddr_setup"} <= names


@pytest.mark.parametrize("mode", MODES)
class TestStalePolicy:
    def test_dropped_frame_rendered_from_stale_data(self, mode, plain_roots):
        config = _config(frame_drop=FRAME_DROP_STALE, **MODES[mode])
        root = _run_with_drop(config)
        assert root.frames_stale == 1
        assert root.frames_dropped == 0
        assert len(root.frames_rendered) == config.n_frames  # every frame encodes
        for frame in root.frames_rendered:
            assert frame.shape == (LBM.ny, LBM.nx, 3)
        _assert_same_frames(root, plain_roots[FRAME_DROP_STALE])


class TestFailPolicy:
    def test_default_policy_surfaces_typed_timeout(self):
        """frame_drop="fail" keeps the pre-fault-fabric strictness: the
        analysis rank raises a typed error instead of rendering onward."""
        config = _config()
        with fault_plan(_drop_frame_plan(1), ReliabilityPolicy(op_deadline_s=0.3)):
            with pytest.raises(RankFailure) as excinfo:
                _run(config)
        assert isinstance(excinfo.value.original, DeadlineError)


class TestStragglerAcrossResplit:
    # The driver reads FaultLayer.op_count of rank threads in its own address space.
    @thread_only
    def test_straggler_of_a_pre_resize_drop_is_purged(self):
        """A slab that misses its deadline just before a scheduled re-split
        lands after the old receiver is gone; the re-split must drain it
        (and keep the count) rather than leak it in the mailbox."""
        base = dict(lbm=LBM, m=3, n=1, steps=30, output_every=10,
                    frame_drop=FRAME_DROP_SKIP, frame_deadline_s=FRAME_DEADLINE_S)
        # Sim 0's last transport op in a fault-free two-frame run is its
        # frame-1 slab send: stall exactly that op past the frame deadline.
        with fault_plan(FaultPlan(seed=0, nranks=4), POLICY) as layer:
            spmd(4, lambda comm: run_pipeline(
                comm, PipelineConfig(**{**base, "steps": 20})))
            late_send = layer.op_count(0) - 1
        plan = FaultPlan(seed=0, nranks=4, events=(
            FaultSpec(kind="delay", rank=0, op=late_send,
                      delay_s=2 * FRAME_DEADLINE_S),
        ))
        config = PipelineConfig(
            **base, resize_schedule=((2, 2, 2),))

        def fn(comm):
            result = run_pipeline(comm, config)
            comm.Barrier()  # every peer's sends have landed
            return result, comm.fabric.mailbox_depth(world_rank=comm.rank)

        with fault_plan(plan, POLICY):
            outcomes = spmd(4, fn, deadlock_timeout=10.0)
        assert _root([r for r, _ in outcomes]).frames_dropped == 1
        assert sum(depth for _, depth in outcomes) == 0
        assert sum(r.slabs_purged for r, _ in outcomes) > 0


class TestCleanRunParity:
    def test_no_faults_means_no_degradation(self):
        for mode in (FRAME_DROP_SKIP, FRAME_DROP_STALE):
            root = _run(_config(frame_drop=mode))[2]
            assert root.frames_dropped == 0
            assert root.frames_stale == 0
            assert len(root.frames_rendered) == 3


class TestValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="frame_drop"):
            _config(frame_drop="hope")

    def test_bad_deadline_rejected(self):
        with pytest.raises(ValueError):
            _config(frame_deadline_s=0.0)
