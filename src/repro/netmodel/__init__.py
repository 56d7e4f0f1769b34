"""Cluster performance model (calibrated to the paper's Cooley results)."""

from .analytic import P2P_PER_MESSAGE_S, EngineCost, engine_cost, executed_plan
from .cluster import COOLEY, ClusterSpec
from .disk import fs_saturation_factor, image_read_time, stack_read_time
from .sensitivity import (
    FITTED_PARAMETERS,
    SweepPoint,
    TornadoBar,
    headline_speedup,
    sweep_parameter,
    tornado,
)
from .predict import (
    LoadPrediction,
    PAPER_PROCESS_COUNTS,
    crossover,
    ddr_plan,
    figure3_series,
    needed_boxes,
    paper_grid,
    predict_ddr,
    predict_no_ddr,
    predict_table2,
)

__all__ = [
    "COOLEY",
    "ClusterSpec",
    "EngineCost",
    "FITTED_PARAMETERS",
    "LoadPrediction",
    "P2P_PER_MESSAGE_S",
    "PAPER_PROCESS_COUNTS",
    "SweepPoint",
    "TornadoBar",
    "crossover",
    "ddr_plan",
    "engine_cost",
    "executed_plan",
    "figure3_series",
    "fs_saturation_factor",
    "headline_speedup",
    "image_read_time",
    "needed_boxes",
    "paper_grid",
    "predict_ddr",
    "predict_no_ddr",
    "predict_table2",
    "stack_read_time",
    "sweep_parameter",
    "tornado",
]
