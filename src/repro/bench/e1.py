"""Harness for Algorithm 1 / Table I / Figure 1 — the paper's E1 example."""

from __future__ import annotations

import numpy as np

from ..core.api import DDR_NewDataDescriptor, DDR_ReorganizeData, DDR_SetupDataMapping
from ..core.box import Box
from ..core.descriptor import DATA_TYPE_2D
from ..core.schedule import compute_global_plan
from ..mpisim.datatypes import FLOAT
from ..mpisim.executor import run_spmd
from .paperdata import TABLE1_E1
from .report import format_table


def e1_parameters(rank: int) -> dict:
    """The Table I row for one rank, computed the way Algorithm 1 does."""
    right, bottom = rank % 2, rank // 2
    return {
        "P1": rank,
        "P2": 4,
        "P3": 2,
        "P4": [[8, 1], [8, 1]],
        "P5": [[0, rank], [0, rank + 4]],
        "P6": [4, 4],
        "P7": [4 * right, 4 * bottom],
    }


def e1_matches_table1() -> bool:
    """Do the Algorithm-1-derived parameters equal the paper's Table I?"""
    return all(e1_parameters(rank) == TABLE1_E1[rank] for rank in range(4))


def run_e1() -> list[np.ndarray]:
    """Execute E1 end-to-end on 4 ranks; returns each rank's quadrant."""

    def fn(comm):
        rank = comm.rank
        params = e1_parameters(rank)
        desc = DDR_NewDataDescriptor(params["P2"], DATA_TYPE_2D, FLOAT, 4)
        DDR_SetupDataMapping(
            comm,
            params["P1"],
            params["P2"],
            params["P3"],
            params["P4"],
            params["P5"],
            params["P6"],
            params["P7"],
            desc,
        )
        g = np.arange(64, dtype=np.float32).reshape(8, 8)
        data_own = [g[rank].copy(), g[rank + 4].copy()]
        data_need = np.zeros((4, 4), dtype=np.float32)
        DDR_ReorganizeData(comm, 4, data_own, data_need, desc)
        return data_need

    return run_spmd(4, fn)


def rank0_mapping() -> dict:
    """Figure 1 panel B: rank 0's send and receive map."""
    owns = [[Box((0, r), (8, 1)), Box((0, r + 4), (8, 1))] for r in range(4)]
    needs = [Box((4 * (r % 2), 4 * (r // 2)), (4, 4)) for r in range(4)]
    (rank0,) = compute_global_plan(owns, needs, 4).rank_plans([0])
    return {
        side + "s": {(c, peer): Box(lo, extent) for c, peer, lo, extent, _ in rank0.lanes(side)}
        for side in ("send", "recv")
    }


def report() -> str:
    """Print Table I plus the executed E1 verification."""
    headers = ["", "P1", "P2", "P3", "P4", "P5", "P6", "P7"]
    rows = []
    for rank in range(4):
        p = e1_parameters(rank)
        rows.append(
            [f"Rank {rank}", p["P1"], p["P2"], p["P3"], p["P4"], p["P5"], p["P6"], p["P7"]]
        )
    lines = [format_table(headers, rows, title="Table I (reproduced): E1 parameters")]
    lines.append(f"matches paper Table I: {e1_matches_table1()}")

    quadrants = run_e1()
    g = np.arange(64, dtype=np.float32).reshape(8, 8)
    ok = all(
        np.array_equal(
            quadrants[r], g[4 * (r // 2) : 4 * (r // 2) + 4, 4 * (r % 2) : 4 * (r % 2) + 4]
        )
        for r in range(4)
    )
    lines.append(f"E1 executed on 4 ranks; quadrants correct: {ok}")
    return "\n".join(lines)
