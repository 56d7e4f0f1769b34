"""Bench: Table III — Alltoallw communication scheduling (exact geometry).

Validates rounds and MB/process/round against the paper's printed values at
the full 128 GiB workload, and times the planner itself (the cost of
``DDR_SetupDataMapping``'s geometry at production scale): the whole plan,
and the one rank's share of it a set-up keeps and executes.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench import table3
from repro.bench.paperdata import TABLE3_SCHEDULE
from repro.io.assignment import Assignment, PAPER_STACK, all_owned_chunks
from repro.core import DataDescriptor, DataLayout, check_send_coverage, compute_global_plan
from repro.core.schedule import Declarations, declare, plan_ranks
from repro.core.validate import check_declarations, check_receives_within_domain
from repro.netmodel import executed_plan
from repro.netmodel.predict import needed_boxes


def test_schedule_matches_paper():
    rows = table3.table3_rows()
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


def test_planner_speed_full_scale_consecutive():
    """Planning 27 ranks x 1 chunk over the full volume."""

    def plan():
        owns = all_owned_chunks(PAPER_STACK, 27, Assignment.CONSECUTIVE)
        return compute_global_plan(owns, needed_boxes(27, PAPER_STACK), 4)

    result = plan()
    assert result.nrounds == 1


def test_planner_speed_full_scale_round_robin():
    """Planning 4096 single-image chunks against 216 needs."""

    def plan():
        owns = all_owned_chunks(PAPER_STACK, 216, Assignment.ROUND_ROBIN)
        return compute_global_plan(owns, needed_boxes(216, PAPER_STACK), 4)

    result = plan()
    assert result.nrounds == 19


def test_rank_local_set_up_beats_planning_every_rank():
    """One rank's set-up work at 216 ranks round-robin — validate every
    declaration, keep its own overlap rows, build the ``alltoallw`` rounds it
    executes — against validating, planning and building every rank's
    executed rounds (what the cost model prices), on the same declarations."""
    nprocs, rank = 216, 7
    owns = all_owned_chunks(PAPER_STACK, nprocs, Assignment.ROUND_ROBIN)
    needs = needed_boxes(nprocs, PAPER_STACK)
    mpi_type = DataDescriptor.create(nprocs, DataLayout(3), np.float32).mpi_type
    declared = [declare(chunks, need, 3) for chunks, need in zip(owns, needs)]

    def rank_local():
        decl = Declarations(declared, 3)
        check_declarations(decl)
        (plan,) = plan_ranks(decl, 4, ranks=[rank])
        return plan, plan.executed("alltoallw", None, mpi_type, 1, {})

    def every_rank():
        check_receives_within_domain(needs, check_send_coverage(owns))
        planned = compute_global_plan(owns, needs, 4)
        return planned, executed_plan(planned, "alltoallw")

    local_s = []
    for _ in range(2):
        started = time.perf_counter()
        plan, executed = rank_local()
        local_s.append(time.perf_counter() - started)
    started = time.perf_counter()
    planned, table = every_rank()
    global_s = time.perf_counter() - started
    print(f"\nrank {rank} of {nprocs}: rank-local {min(local_s) * 1e3:.1f} ms, "
          f"every rank {global_s * 1e3:.1f} ms ({global_s / min(local_s):.1f}x)")
    assert [r.bytes_out for r in executed] == table.bytes_out[:, rank].tolist()
    assert plan.nrounds == planned.nrounds == 19 and len(executed) == table.nrounds == 1
    assert global_s >= 5 * min(local_s)
