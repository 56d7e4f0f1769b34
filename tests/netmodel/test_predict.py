"""Table II / Figure 3 prediction tests.

Small-scale tests run everywhere; the full-paper-scale shape checks are
marked slow (seconds of planning time each).
"""

from __future__ import annotations

import pytest

from repro.io import Assignment, StackGeometry
from repro.netmodel import (
    COOLEY,
    ddr_plan,
    engine_cost,
    figure3_series,
    paper_grid,
    predict_ddr,
    predict_no_ddr,
    predict_table2,
)
from tests.netmodel.test_analytic import round_payloads

SMALL = StackGeometry(width=256, height=128, n_images=64, bytes_per_pixel=4)


class TestGeometryHelpers:
    def test_paper_grid_perfect_cubes(self):
        for g in (3, 4, 5, 6):
            assert paper_grid(g**3, SMALL) == (g, g, g)

    def test_paper_grid_non_cube(self):
        grid = paper_grid(12, StackGeometry(400, 400, 400, 1))
        assert grid[0] * grid[1] * grid[2] == 12

    def test_paper_grid_non_cube_is_normalised_3_tuple(self):
        for nprocs in (2, 10, 12, 30, 100):
            grid = paper_grid(nprocs, StackGeometry(400, 400, 400, 1))
            assert isinstance(grid, tuple) and len(grid) == 3
            assert all(type(axis) is int for axis in grid)
            assert grid[0] * grid[1] * grid[2] == nprocs

    def test_ddr_plan_round_counts(self):
        rr = ddr_plan(8, Assignment.ROUND_ROBIN, SMALL)
        consec = ddr_plan(8, Assignment.CONSECUTIVE, SMALL)
        assert rr.nrounds == 64 // 8
        assert consec.nrounds == 1

    def test_plan_cache_returns_same_object(self):
        a = ddr_plan(8, Assignment.ROUND_ROBIN, SMALL)
        b = ddr_plan(8, Assignment.ROUND_ROBIN, SMALL)
        assert a is b


class TestExchangeCostModel:
    def test_round_payloads_shape(self):
        plan = ddr_plan(8, Assignment.ROUND_ROBIN, SMALL)
        payloads = round_payloads(plan)
        assert len(payloads) == plan.nrounds
        assert all(p >= 0 for p in payloads)

    def test_alpha_dominates_many_small_rounds(self):
        rr = engine_cost(COOLEY, ddr_plan(8, Assignment.ROUND_ROBIN, SMALL), "alltoallw")
        consec = engine_cost(COOLEY, ddr_plan(8, Assignment.CONSECUTIVE, SMALL), "alltoallw")
        assert rr.alpha_s == pytest.approx(8 * consec.alpha_s)

    def test_total_is_sum_of_parts(self):
        cost = engine_cost(COOLEY, ddr_plan(8, Assignment.CONSECUTIVE, SMALL), "alltoallw")
        assert cost.message_s == 0.0
        assert cost.total_s == pytest.approx(cost.alpha_s + cost.transfer_s + cost.self_copy_s)


class TestPredictionsSmall:
    def test_ddr_beats_no_ddr(self):
        no_ddr = predict_no_ddr(COOLEY, 8, SMALL)
        ddr = predict_ddr(COOLEY, 8, Assignment.CONSECUTIVE, SMALL)
        assert ddr.total_s < no_ddr.total_s

    def test_modes_labelled(self):
        assert predict_no_ddr(COOLEY, 8, SMALL).mode == "no_ddr"
        assert predict_ddr(COOLEY, 8, Assignment.ROUND_ROBIN, SMALL).mode == "ddr_round_robin"

    def test_backend_parameter_all_engines(self):
        # Consecutive assignment at 8 ranks is sparse, so the direct path
        # must price below the collective, and auto must track the winner.
        by_backend = {
            backend: predict_ddr(
                COOLEY, 8, Assignment.CONSECUTIVE, SMALL, backend=backend
            )
            for backend in ("alltoallw", "p2p", "auto")
        }
        assert by_backend["p2p"].exchange_s < by_backend["alltoallw"].exchange_s
        assert by_backend["auto"].exchange_s <= by_backend["alltoallw"].exchange_s
        # The read phase does not depend on the exchange engine.
        reads = {p.read_s for p in by_backend.values()}
        assert len(reads) == 1

    def test_default_backend_is_alltoallw(self):
        default = predict_ddr(COOLEY, 8, Assignment.ROUND_ROBIN, SMALL)
        explicit = predict_ddr(
            COOLEY, 8, Assignment.ROUND_ROBIN, SMALL, backend="alltoallw"
        )
        assert default.exchange_s == explicit.exchange_s


PAPER_TABLE2 = {
    27: (283.0, 39.3, 49.2),
    64: (204.6, 18.9, 18.9),
    125: (188.2, 11.1, 10.4),
    216: (165.3, 9.7, 6.6),
}


@pytest.mark.slow
class TestPaperShape:
    """Calibrated-model predictions must reproduce Table II's structure."""

    @pytest.fixture(scope="class")
    def rows(self):
        return {row["nprocs"]: row for row in predict_table2()}

    def test_within_tolerance_of_paper(self, rows):
        for nprocs, (no_ddr, rr, consec) in PAPER_TABLE2.items():
            row = rows[nprocs]
            assert row["no_ddr_s"] == pytest.approx(no_ddr, rel=0.25)
            assert row["ddr_round_robin_s"] == pytest.approx(rr, rel=0.25)
            assert row["ddr_consecutive_s"] == pytest.approx(consec, rel=0.30)

    def test_round_robin_wins_small_scale(self, rows):
        assert rows[27]["ddr_round_robin_s"] < rows[27]["ddr_consecutive_s"]

    def test_strategies_tie_at_64(self, rows):
        rr, consec = rows[64]["ddr_round_robin_s"], rows[64]["ddr_consecutive_s"]
        assert abs(rr - consec) / max(rr, consec) < 0.15

    def test_consecutive_wins_large_scale(self, rows):
        for nprocs in (125, 216):
            assert rows[nprocs]["ddr_consecutive_s"] < rows[nprocs]["ddr_round_robin_s"]

    def test_headline_speedup(self, rows):
        """Paper: 24.9x at 216 processes.  Require >15x from the model."""
        speedup = rows[216]["no_ddr_s"] / rows[216]["ddr_consecutive_s"]
        assert speedup > 15

    def test_strong_scaling_of_ddr(self, rows):
        """Figure 3: both DDR curves decrease monotonically with scale."""
        for mode in ("ddr_round_robin_s", "ddr_consecutive_s"):
            times = [rows[p][mode] for p in (27, 64, 125, 216)]
            assert times == sorted(times, reverse=True)

    def test_figure3_series_structure(self, rows):
        series = figure3_series()
        assert series["nprocs"] == [27, 64, 125, 216]
        assert series["ddr_consecutive"][-1] < series["no_ddr"][-1] / 15
