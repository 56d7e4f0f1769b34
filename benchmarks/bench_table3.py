"""Bench: Table III — Alltoallw communication scheduling (exact geometry).

Validates rounds and MB/process/round against the paper's printed values at
the full 128 GiB workload, and times the planner itself (the cost of
``DDR_SetupDataMapping``'s geometry at production scale).
"""

from __future__ import annotations

import pytest

from repro.bench import table3
from repro.bench.paperdata import TABLE3_SCHEDULE
from repro.io.assignment import Assignment, PAPER_STACK, all_owned_chunks
from repro.core import compute_global_plan
from repro.netmodel.predict import needed_boxes


def test_schedule_matches_paper(benchmark):
    rows = benchmark.pedantic(table3.table3_rows, rounds=1, iterations=1)
    print("\n" + table3.report())
    for row in rows:
        assert row.rounds == row.paper_rounds, (row.nprocs, row.strategy)
        # MB/round to within 0.2% of the paper's printed decimals (the
        # residue is integer slice-boundary effects at non-divisible P).
        assert row.mb_per_round == pytest.approx(row.paper_mb, rel=2e-3), row


def test_round_counts_formula():
    """Rounds: 1 for consecutive; ceil(4096 / P) for round-robin."""
    for nprocs, per in TABLE3_SCHEDULE.items():
        assert per["consecutive"][0] == 1
        assert per["round_robin"][0] == -(-4096 // nprocs)


def test_planner_speed_full_scale_consecutive(benchmark):
    """Planning 27 ranks x 1 chunk over the full volume."""

    def plan():
        owns = all_owned_chunks(PAPER_STACK, 27, Assignment.CONSECUTIVE)
        return compute_global_plan(owns, needed_boxes(27, PAPER_STACK), 4)

    result = benchmark(plan)
    assert result.nrounds == 1


def test_planner_speed_full_scale_round_robin(benchmark):
    """Planning 4096 single-image chunks against 216 needs."""

    def plan():
        owns = all_owned_chunks(PAPER_STACK, 216, Assignment.ROUND_ROBIN)
        return compute_global_plan(owns, needed_boxes(216, PAPER_STACK), 4)

    result = benchmark.pedantic(plan, rounds=1, iterations=1)
    assert result.nrounds == 19
