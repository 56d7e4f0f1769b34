"""Chaos harness: a short sweep must classify every run, never hang."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.faults.chaos import (
    BACKENDS,
    DEGRADED,
    FAILED,
    OK,
    RECOVERED,
    TYPED_ERROR,
    ChaosReport,
    ChaosRun,
    run_chaos,
)


class TestRunChaos:
    def test_short_sweep_passes_and_covers_backends(self):
        report = run_chaos(seed=0, runs=6, ops=60, nprocs=2)
        assert len(report.runs) == 6
        assert report.passed, report.summary()
        assert {run.backend for run in report.runs} == set(BACKENDS)
        for run in report.runs:
            assert run.outcome in (OK, DEGRADED, TYPED_ERROR)
            if run.outcome != OK:
                assert run.error  # classified outcomes carry their cause

    def test_sweep_is_reproducible(self):
        a = run_chaos(seed=3, runs=3, ops=40, nprocs=2)
        b = run_chaos(seed=3, runs=3, ops=40, nprocs=2)
        assert [r.outcome for r in a.runs] == [r.outcome for r in b.runs]
        assert [r.injected for r in a.runs] == [r.injected for r in b.runs]

    def test_rejects_single_rank(self):
        with pytest.raises(ValueError):
            run_chaos(nprocs=1)


class TestCrashMode:
    def test_single_crash_sweep_never_hangs_and_recovers(self):
        report = run_chaos(seed=0, runs=8, ops=120, crashes=True)
        assert len(report.runs) == 8
        assert report.passed, report.summary()
        for run in report.runs:
            assert run.outcome in (OK, RECOVERED, DEGRADED, TYPED_ERROR)
        # the tightened crash window makes most runs actually lose a rank
        assert any(run.outcome == RECOVERED for run in report.runs)

    def test_crash_sweep_is_reproducible(self):
        a = run_chaos(seed=5, runs=4, ops=80, crashes=True)
        b = run_chaos(seed=5, runs=4, ops=80, crashes=True)
        assert [r.outcome for r in a.runs] == [r.outcome for r in b.runs]

    def test_runs_record_fault_stats(self):
        report = run_chaos(seed=0, runs=3, ops=80, crashes=True)
        assert all(isinstance(run.stats, dict) for run in report.runs)


class TestResizeMode:
    def test_resize_sweep_is_bitwise_or_typed(self):
        report = run_chaos(seed=0, runs=6, ops=80, resizes=True)
        assert report.passed
        workloads = {run.workload for run in report.runs}
        assert "resize" in workloads
        assert "pipeline-resize" in workloads
        # No crashes are injected, so nothing should *need* recovery.
        assert all(
            run.outcome in ("ok", "typed-error") for run in report.runs
        )

    def test_resize_sweep_is_reproducible(self):
        a = run_chaos(seed=7, runs=3, ops=60, resizes=True)
        b = run_chaos(seed=7, runs=3, ops=60, resizes=True)
        assert [r.outcome for r in a.runs] == [r.outcome for r in b.runs]
        assert [r.injected for r in a.runs] == [r.injected for r in b.runs]

    def test_modes_are_exclusive(self):
        with pytest.raises(ValueError):
            run_chaos(crashes=True, resizes=True)


class TestSeededPipelineOutcomes:
    """The pipeline rows of the CI crash and resize sweeps, pinned to what
    the three separate drivers produced before they were merged."""

    GOLDEN = json.loads(
        (Path(__file__).parent / "chaos_pipeline_golden.json").read_text()
    )

    @pytest.mark.parametrize("mode", ["crashes", "resizes"])
    def test_outcomes_match_golden(self, mode):
        golden = self.GOLDEN[mode]
        report = run_chaos(**golden["args"], **{mode: True})
        rows = [
            [run.index, run.workload, run.backend, run.transport, run.outcome]
            for run in report.runs
            if run.workload.startswith("pipeline")
        ]
        assert rows == golden["rows"]


class TestToDict:
    def test_report_round_trips_to_json(self, tmp_path):
        import json

        report = run_chaos(seed=0, runs=3, ops=40, nprocs=2)
        data = report.to_dict()
        assert data["passed"] is True
        assert sum(data["counts"].values()) == 3
        assert len(data["runs"]) == 3
        assert {"index", "seed", "outcome", "stats"} <= set(data["runs"][0])
        # must be JSON-serializable as-is
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps(data))
        assert json.loads(path.read_text())["counts"] == data["counts"]


class TestReport:
    def test_empty_report_does_not_pass(self):
        assert not ChaosReport().passed

    def test_failed_run_fails_report_and_is_summarized(self):
        report = ChaosReport(runs=[
            ChaosRun(index=0, seed=9, workload="redistribute", backend="p2p",
                     transport="packed", outcome=FAILED, error="HangError: x"),
        ])
        assert not report.passed
        assert "FAILED run 0 (seed 9" in report.summary()


class TestCli:
    def test_chaos_subcommand_exit_zero(self, capsys):
        code = main(["chaos", "--runs", "3", "--ops", "40", "--nprocs", "2",
                     "--quiet"])
        assert code == 0
        assert "chaos: 3 runs" in capsys.readouterr().out

    def test_chaos_resizes_flag(self, capsys):
        code = main(["chaos", "--runs", "3", "--ops", "60", "--resizes",
                     "--quiet"])
        assert code == 0
        assert "chaos: 3 runs" in capsys.readouterr().out

    def test_chaos_crashes_flag_with_json_artifact(self, capsys, tmp_path):
        import json

        path = tmp_path / "report.json"
        code = main(["chaos", "--runs", "4", "--ops", "80", "--crashes",
                     "--quiet", "--json", str(path)])
        assert code == 0
        assert str(path) in capsys.readouterr().out
        data = json.loads(path.read_text())
        assert data["passed"] is True
        assert sum(data["counts"].values()) == 4
