"""Cluster performance model (calibrated to the paper's Cooley results)."""

from .analytic import (
    P2P_PER_MESSAGE_S,
    EngineCost,
    ExchangeCost,
    engine_cost,
    exchange_cost,
    executed_plan,
    point_to_point_cost,
)
from .cluster import COOLEY, ClusterSpec
from .desnet import (
    Flow,
    default_rank_to_node,
    flows_for_round,
    maxmin_rates,
    simulate_exchange,
    simulate_flows,
)
from .disk import fs_saturation_factor, image_read_time, stack_read_time
from .sensitivity import (
    FITTED_PARAMETERS,
    SweepPoint,
    TornadoBar,
    crossover,
    headline_speedup,
    sweep_parameter,
    tornado,
)
from .predict import (
    LoadPrediction,
    PAPER_PROCESS_COUNTS,
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
    "ExchangeCost",
    "FITTED_PARAMETERS",
    "Flow",
    "LoadPrediction",
    "P2P_PER_MESSAGE_S",
    "PAPER_PROCESS_COUNTS",
    "SweepPoint",
    "TornadoBar",
    "crossover",
    "ddr_plan",
    "default_rank_to_node",
    "engine_cost",
    "executed_plan",
    "exchange_cost",
    "figure3_series",
    "flows_for_round",
    "fs_saturation_factor",
    "headline_speedup",
    "image_read_time",
    "maxmin_rates",
    "needed_boxes",
    "paper_grid",
    "point_to_point_cost",
    "predict_ddr",
    "predict_no_ddr",
    "predict_table2",
    "simulate_exchange",
    "simulate_flows",
    "stack_read_time",
    "sweep_parameter",
    "tornado",
]
