"""Ablation: file-assignment strategy (round-robin / consecutive /
block-cyclic) and its effect on the DDR schedule.

Table III shows the two paper strategies are the endpoints of a trade-off
(1 round of huge messages vs many rounds of constant-size messages);
block-cyclic sits between them, and this ablation quantifies where.
"""

from __future__ import annotations

import pytest

from repro.core import compute_global_plan
from repro.io.assignment import Assignment, StackGeometry, all_owned_chunks
from repro.netmodel import COOLEY, engine_cost, needed_boxes
from repro.utils.units import MiB

STACK = StackGeometry(width=1024, height=512, n_images=1024, bytes_per_pixel=4)
NPROCS = 64


def plan_for(strategy: Assignment, block: int = 8):
    owns = all_owned_chunks(STACK, NPROCS, strategy, block=block)
    return compute_global_plan(owns, needed_boxes(NPROCS, STACK), STACK.bytes_per_pixel)


@pytest.mark.parametrize(
    "strategy", [Assignment.ROUND_ROBIN, Assignment.CONSECUTIVE, Assignment.BLOCK_CYCLIC]
)
def test_schedule_per_strategy(strategy):
    plan = plan_for(strategy)
    cost = engine_cost(COOLEY, plan, "alltoallw")
    print(
        f"\n{strategy.value}: rounds={plan.nrounds} "
        f"MB/round={plan.mean_bytes_per_chunk_round() / MiB:.2f} "
        f"modeled exchange={cost.total_s:.3f}s"
    )
    assert plan.nrounds >= 1


def test_block_cyclic_sits_between():
    def all_three():
        return {
            strategy: plan_for(strategy)
            for strategy in (
                Assignment.ROUND_ROBIN,
                Assignment.CONSECUTIVE,
                Assignment.BLOCK_CYCLIC,
            )
        }

    plans = all_three()
    rr = plans[Assignment.ROUND_ROBIN]
    consec = plans[Assignment.CONSECUTIVE]
    cyclic = plans[Assignment.BLOCK_CYCLIC]

    # Rounds: consecutive (1) < block-cyclic < round-robin.
    assert consec.nrounds < cyclic.nrounds < rr.nrounds
    # Per-round payload ordering is the reverse.
    assert (
        consec.mean_bytes_per_chunk_round()
        > cyclic.mean_bytes_per_chunk_round()
        > rr.mean_bytes_per_chunk_round()
    )
    # Every strategy moves the same total volume (minus what stays local).
    totals = {s: p.total_bytes_moved(exclude_self=False) for s, p in plans.items()}
    domain_bytes = STACK.total_bytes
    for total in totals.values():
        assert total == domain_bytes


def test_block_size_sweep():
    """Larger block-cyclic blocks -> fewer rounds, bigger messages."""

    def sweep():
        return {
            block: plan_for(Assignment.BLOCK_CYCLIC, block=block)
            for block in (2, 8, 32)
        }

    plans = sweep()
    rounds = [plans[b].nrounds for b in (2, 8, 32)]
    assert rounds == sorted(rounds, reverse=True)
