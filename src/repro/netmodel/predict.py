"""Full-scale predictions for the paper's Table II and Figure 3.

Combines the *actual* DDR schedule (from the planner, at the paper's full
128 GB geometry) with the calibrated Cooley model: disk model for the read
phase, the analytic model (:func:`~repro.netmodel.analytic.engine_cost`) for
the exchange phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from ..core.schedule import GlobalPlan, RoundTable, compute_global_plan
from ..io.assignment import (
    Assignment,
    PAPER_STACK,
    StackGeometry,
    all_owned_chunks,
    assigned_images,
)
from ..volren.decompose import grid_boxes, grid_shape
from .analytic import engine_cost
from .cluster import COOLEY, ClusterSpec
from .disk import stack_read_time

#: Table II / Figure 3 process counts: 3^3, 4^3, 5^3, 6^3.
PAPER_PROCESS_COUNTS = (27, 64, 125, 216)


@dataclass(frozen=True)
class LoadPrediction:
    """Predicted load time for one (process count, strategy) cell."""

    nprocs: int
    mode: str  # "no_ddr" | "ddr_round_robin" | "ddr_consecutive"
    read_s: float
    exchange_s: float
    rounds: int

    @property
    def total_s(self) -> float:
        return self.read_s + self.exchange_s


def paper_grid(nprocs: int, stack: StackGeometry) -> tuple[int, int, int]:
    """Per-axis process grid: perfect cubes split g x g x g like the paper;
    other counts fall back to the near-cubic search."""
    g = round(nprocs ** (1 / 3))
    if g**3 == nprocs:
        return (g, g, g)
    grid = tuple(int(v) for v in grid_shape(nprocs, stack.volume_dims))
    # grid_shape returns one factor per volume axis; anything else means the
    # stack geometry was not the 3-D volume this predictor models.
    if len(grid) != 3:
        raise ValueError(
            f"process grid for {nprocs} ranks over {stack.volume_dims} has "
            f"{len(grid)} axes, expected 3"
        )
    return grid


def needed_boxes(nprocs: int, stack: StackGeometry) -> list:
    return grid_boxes(stack.volume_dims, paper_grid(nprocs, stack))


@lru_cache(maxsize=32)
def _plan_cached(
    nprocs: int, strategy_value: str, stack_key: tuple[int, int, int, int]
) -> GlobalPlan:
    stack = StackGeometry(*stack_key)
    strategy = Assignment(strategy_value)
    owns = all_owned_chunks(stack, nprocs, strategy)
    needs = needed_boxes(nprocs, stack)
    return compute_global_plan(owns, needs, stack.bytes_per_pixel)


def ddr_plan(
    nprocs: int, strategy: Assignment, stack: StackGeometry = PAPER_STACK
) -> GlobalPlan:
    """The (cached) full-scale redistribution schedule for one strategy."""
    key = (stack.width, stack.height, stack.n_images, stack.bytes_per_pixel)
    return _plan_cached(nprocs, strategy.value, key)


def predict_no_ddr(
    cluster: ClusterSpec, nprocs: int, stack: StackGeometry = PAPER_STACK
) -> LoadPrediction:
    """Baseline: every rank reads and decodes every image its block touches
    (paper: "Reading and decoding entire images on each process leads to
    many processes loading the same image")."""
    needs = needed_boxes(nprocs, stack)
    images_per_rank = max(box.dims[2] for box in needs)
    read_s = stack_read_time(cluster, images_per_rank, stack.image_bytes, nprocs)
    return LoadPrediction(
        nprocs=nprocs,
        mode="no_ddr",
        read_s=read_s,
        exchange_s=0.0,
        rounds=0,
    )


def predict_ddr(
    cluster: ClusterSpec,
    nprocs: int,
    strategy: Assignment,
    stack: StackGeometry = PAPER_STACK,
    backend: str = "alltoallw",
    executed: Optional[RoundTable] = None,
) -> LoadPrediction:
    """DDR path: load-balanced reads, then the modeled redistribution.

    ``backend`` picks the exchange engine being modeled — the same four
    names the execution layer accepts, and the same per-round protocol
    rule.  ``executed`` prices the rounds the engine runs instead of the
    planned ones — a table of this geometry's plan from
    :func:`~repro.netmodel.analytic.executed_plan` — and ``rounds`` then
    counts them.
    """
    images_per_rank = max(
        len(assigned_images(stack, nprocs, rank, strategy)) for rank in range(nprocs)
    )
    read_s = stack_read_time(cluster, images_per_rank, stack.image_bytes, nprocs)
    priced = ddr_plan(nprocs, strategy, stack).table if executed is None else executed
    return LoadPrediction(
        nprocs=nprocs,
        mode=f"ddr_{strategy.value}",
        read_s=read_s,
        exchange_s=engine_cost(cluster, priced, backend).total_s,
        rounds=priced.nrounds,
    )


def predict_table2(
    cluster: ClusterSpec = COOLEY,
    stack: StackGeometry = PAPER_STACK,
    process_counts: Sequence[int] = PAPER_PROCESS_COUNTS,
) -> list[dict]:
    """One dict per Table II row: process count and the three load times."""
    rows = []
    for nprocs in process_counts:
        no_ddr = predict_no_ddr(cluster, nprocs, stack)
        rr = predict_ddr(cluster, nprocs, Assignment.ROUND_ROBIN, stack)
        consec = predict_ddr(cluster, nprocs, Assignment.CONSECUTIVE, stack)
        rows.append(
            {
                "nprocs": nprocs,
                "no_ddr_s": no_ddr.total_s,
                "ddr_round_robin_s": rr.total_s,
                "ddr_consecutive_s": consec.total_s,
                "round_robin": rr,
                "consecutive": consec,
                "no_ddr": no_ddr,
            }
        )
    return rows


def figure3_series(
    cluster: ClusterSpec = COOLEY,
    stack: StackGeometry = PAPER_STACK,
    process_counts: Sequence[int] = PAPER_PROCESS_COUNTS,
) -> dict[str, list[float]]:
    """Figure 3's three strong-scaling curves (seconds vs process count)."""
    rows = predict_table2(cluster, stack, process_counts)
    return {
        "nprocs": [row["nprocs"] for row in rows],
        "no_ddr": [row["no_ddr_s"] for row in rows],
        "ddr_round_robin": [row["ddr_round_robin_s"] for row in rows],
        "ddr_consecutive": [row["ddr_consecutive_s"] for row in rows],
    }


def crossover(series: dict[str, list[float]]) -> Optional[int]:
    """First process count of a :func:`figure3_series`-shaped ``series`` where
    consecutive strictly beats round-robin (a tie is no crossover; paper:
    125), or ``None`` if it never does."""
    for nprocs, rr, consec in zip(
        series["nprocs"], series["ddr_round_robin"], series["ddr_consecutive"]
    ):
        if consec < rr:
            return nprocs
    return None
