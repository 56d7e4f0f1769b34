"""M-to-N in-transit streaming and the sim->analysis pipeline (use case 2)."""

from .pipeline import (
    FRAME_DROP_FAIL,
    FRAME_DROP_MODES,
    FRAME_DROP_SKIP,
    FRAME_DROP_STALE,
    ON_RANK_LOSS_FAIL,
    ON_RANK_LOSS_MODES,
    ON_RANK_LOSS_SHRINK,
    PipelineConfig,
    PipelineResult,
    run_pipeline,
)
from .stream import (
    StreamReceiver,
    StreamSender,
    StreamTopology,
    analysis_rank_for,
    frame_tag,
    sim_to_analysis_map,
)

__all__ = [
    "FRAME_DROP_FAIL",
    "FRAME_DROP_MODES",
    "FRAME_DROP_SKIP",
    "FRAME_DROP_STALE",
    "ON_RANK_LOSS_FAIL",
    "ON_RANK_LOSS_MODES",
    "ON_RANK_LOSS_SHRINK",
    "PipelineConfig",
    "PipelineResult",
    "StreamReceiver",
    "StreamSender",
    "StreamTopology",
    "analysis_rank_for",
    "frame_tag",
    "run_pipeline",
    "sim_to_analysis_map",
]
