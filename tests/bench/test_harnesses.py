"""Tests of the per-artifact bench harness functions (fast paths only;
full-scale shape checks live in benchmarks/)."""

from __future__ import annotations

import pytest

from repro.bench import e1, fig3, fig45, table2, table3, table4
from repro.io.assignment import StackGeometry
from repro.netmodel import crossover

SMALL = StackGeometry(width=256, height=128, n_images=512, bytes_per_pixel=4)


class TestE1Harness:
    def test_parameters_match_paperdata(self):
        assert e1.e1_matches_table1()

    def test_run_returns_quadrants(self):
        quadrants = e1.run_e1()
        assert len(quadrants) == 4
        assert all(q.shape == (4, 4) for q in quadrants)

    def test_rank0_mapping_counts(self):
        mapping = e1.rank0_mapping()
        assert len(mapping["sends"]) == 4
        assert len(mapping["recvs"]) == 4

    def test_report_runs(self):
        out = e1.report()
        assert "Table I" in out and "True" in out


class TestTable3Harness:
    def test_rows_small_stack(self):
        rows = table3.table3_rows(SMALL)
        assert len(rows) == 8  # 4 scales x 2 strategies
        by_key = {(r.nprocs, r.strategy): r for r in rows}
        # At a non-paper stack the paper comparison is geometric only:
        assert by_key[(27, "consecutive")].rounds == 1
        assert by_key[(64, "round_robin")].rounds == 8  # 512 imgs / 64 procs


class TestTable2Harness:
    def test_native_runs_small(self, tmp_path):
        stack_dir = table2.prepare_native_stack(tmp_path, width=32, height=16, depth=8)
        row = table2.table2_native(stack_dir, nprocs=8, grid=(2, 2, 2))
        assert row.verified_equal
        assert row.rr_decodes == 8
        assert row.consec_decodes == 8
        assert row.no_ddr_decodes == 32  # 4x redundancy

    def test_prepare_is_idempotent(self, tmp_path):
        a = table2.prepare_native_stack(tmp_path, width=16, height=8, depth=4)
        mtime = (a / "slice_00000.tif").stat().st_mtime_ns
        b = table2.prepare_native_stack(tmp_path, width=16, height=8, depth=4)
        assert a == b
        assert (b / "slice_00000.tif").stat().st_mtime_ns == mtime  # not rewritten


class TestFig3Harness:
    def test_summaries_from_custom_series(self):
        series = {
            "nprocs": [27, 64, 125, 216],
            "no_ddr": [100.0, 90.0, 80.0, 75.0],
            "ddr_round_robin": [20.0, 10.0, 6.0, 4.0],
            "ddr_consecutive": [25.0, 10.0, 5.0, 3.0],
        }
        summaries = fig3.scaling_summaries(series)
        by_mode = {s.mode: s for s in summaries}
        assert by_mode["no_ddr"].speedup_27_to_216 == pytest.approx(100 / 75)
        assert by_mode["ddr_consecutive"].parallel_efficiency == pytest.approx(
            (25 / 3) / 8
        )
        # Strict win required: the 64-rank tie does not count as a crossover.
        assert crossover(series) == 125

    def test_crossover_none_when_rr_always_wins(self):
        series = {
            "nprocs": [27, 64],
            "ddr_round_robin": [1.0, 1.0],
            "ddr_consecutive": [2.0, 2.0],
        }
        assert crossover(series) is None

    def test_ascii_plot_renders(self):
        series = {
            "nprocs": [27, 216],
            "no_ddr": [100.0, 75.0],
            "ddr_round_robin": [20.0, 4.0],
            "ddr_consecutive": [25.0, 3.0],
        }
        plot = fig3.ascii_plot(series, width=40)
        assert "noDDR" in plot and "#" in plot


class TestFig45Harness:
    def test_mapping(self):
        assert fig45.figure4_matches_paper()

    def test_layouts_cover_domain(self):
        layouts = fig45.figure5_layouts(m=6, n=3, nx=30, ny=12)
        total = sum(layout.rectangle.volume() for layout in layouts)
        assert total == 30 * 12


class TestTable4Harness:
    def test_rows_from_synthetic_measurement(self):
        measured = table4.MeasuredCompression(
            nx=100, ny=40, frames=10, jpeg_bytes=16_000, raw_bytes=100 * 40 * 4 * 10
        )
        assert measured.bits_per_pixel == pytest.approx(3.2)
        rows = table4.table4_rows(measured)
        assert len(rows) == 4
        for row in rows:
            assert row.raw_bytes == row.nx * row.ny * 4 * 200
            assert 0 < row.reduction < 1

    def test_scaling_fit(self):
        small = table4.MeasuredCompression(
            nx=100, ny=40, frames=10, jpeg_bytes=20_000, raw_bytes=100 * 40 * 4 * 10
        )
        large = table4.MeasuredCompression(
            nx=200, ny=80, frames=10, jpeg_bytes=45_000, raw_bytes=200 * 80 * 4 * 10
        )
        fit = table4.fit_scaling(small, large)
        assert 0.5 <= fit.alpha <= 1.0
        # The fit reproduces the large measurement's frame size.
        assert fit.frame_bytes(200 * 80) == pytest.approx(4_500, rel=0.01)

    def test_fit_requires_two_scales(self):
        m = table4.MeasuredCompression(
            nx=10, ny=10, frames=1, jpeg_bytes=100, raw_bytes=400
        )
        with pytest.raises(ValueError):
            table4.fit_scaling(m, m)

    def test_header_bytes_positive(self):
        assert 100 < table4.jpeg_header_bytes() < 2000
