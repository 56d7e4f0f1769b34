"""The planner's overlap rows, pinned against ``plan_golden_v1.json``.

The golden file holds each rank's declarations and rows for three plans, as
the planner wrote them at the commit before the plan IRs were merged: E1
quadrants, a round-robin stack with uneven chunk counts and a need-less
rank, and a shrunken rank set whose survivors keep non-contiguous slabs.  A
fresh :func:`compute_global_plan` over the same declarations must list the
same rows, byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import Box, GlobalPlan, compute_global_plan

GOLDEN = json.loads((Path(__file__).parent / "plan_golden_v1.json").read_text())


def boxes(rows):
    return [None if row is None else Box(tuple(row[0]), tuple(row[1])) for row in rows]


def rank_entry(plan) -> dict:
    """One rank's declarations and rows, ``sends`` as ``[round, peer, round,
    chunk, overlap]`` and ``recvs`` as ``[round, peer, overlap]``, in
    ``(round, peer)`` order, boxes as ``[offset, dims]``."""
    own = plan.own.tolist()
    return {
        "rank": plan.rank,
        "own": own,
        "need": None if plan.need is None else plan.need.tolist(),
        "sends": [[c, peer, c, own[c], [list(lo), list(extent)]]
                  for c, peer, lo, extent, _ in plan.lanes("send")],
        "recvs": [[c, peer, [list(lo), list(extent)]]
                  for c, peer, lo, extent, _ in plan.lanes("recv")],
    }


def plan_dump(plan: GlobalPlan) -> dict:
    """The plan as the golden file lists it (format ``version: 1``)."""
    return {
        "version": 1,
        "nprocs": plan.nprocs,
        "ndims": plan.ndims,
        "element_size": plan.element_size,
        "nrounds": plan.nrounds,
        "ranks": [rank_entry(rank) for rank in plan.rank_plans()],
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fresh_plans_equal_the_golden_rows(name):
    saved = GOLDEN[name]
    fresh = compute_global_plan(
        [boxes(entry["own"]) for entry in saved["ranks"]],
        boxes([entry["need"] for entry in saved["ranks"]]),
        saved["element_size"],
    )
    assert plan_dump(fresh) == saved
