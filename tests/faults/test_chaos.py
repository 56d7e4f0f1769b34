"""Chaos runner: every scenario must classify every run, never hang, and —
at its CI arguments — reproduce the rows pinned in ``chaos_golden.json``.

Running this file as a script re-records the golden from the tree on
``PYTHONPATH`` (only ever do that from a commit known good, and say so in
CHANGES.md)."""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.faults.chaos import (
    BACKENDS,
    DEGRADED,
    FAILED,
    MEMORY_BACKENDS,
    OK,
    RECOVERED,
    TYPED_ERROR,
    ChaosReport,
    ChaosRun,
    run_chaos,
)

GOLDEN_PATH = Path(__file__).parent / "chaos_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


@functools.lru_cache(maxsize=None)
def _golden_sweep(scenario: str) -> ChaosReport:
    """The sweep at its golden (CI, or for ``edge`` tier-1) arguments, run
    once per session however many tests look at it."""
    return run_chaos(scenario, **GOLDEN["sweeps"][scenario]["args"])


def _pins(run: ChaosRun) -> list:
    """What the golden pins of a run: its labels, outcome and error type,
    ``injected`` when the run ends ok / recovered (else ``None``), and for
    an edge storm the seeded plan (sorted behaviours) instead of the
    timing-dependent outcome."""
    if "clients" in run.stats:
        return [run.index, sorted(c["behavior"] for c in run.stats["clients"])]
    return [
        run.index, run.workload, run.backend, run.executor, run.transport,
        run.outcome, run.error.split(":")[0],
        run.injected if run.outcome in (OK, RECOVERED) else None,
    ]


class TestRunChaos:
    def test_short_sweep_passes_and_covers_backends(self):
        report = run_chaos("message", seed=0, runs=6, ops=60, nprocs=2)
        assert len(report.runs) == 6
        assert report.passed, report.summary()
        assert {run.backend for run in report.runs} == set(BACKENDS)
        for run in report.runs:
            assert run.outcome in (OK, DEGRADED, TYPED_ERROR)
            if run.outcome != OK:
                assert run.error  # classified outcomes carry their cause

    def test_rejects_single_rank(self):
        with pytest.raises(ValueError):
            run_chaos(nprocs=1)

    @pytest.mark.parametrize("kwargs", [
        dict(scenario="bogus"),
        dict(runs=0),
        dict(ops=0),
        dict(scenario="edge", clients=0),
        dict(scenario="edge", ops=10),
        dict(scenario="memory", clients=3),
    ])
    def test_rejects_arguments_before_running_anything(self, kwargs):
        with pytest.raises(ValueError):
            run_chaos(**kwargs)


class TestCrashMode:
    def test_single_crash_sweep_never_hangs_and_recovers(self):
        report = run_chaos("crash", seed=0, runs=8, ops=120)
        assert len(report.runs) == 8
        assert report.passed, report.summary()
        for run in report.runs:
            assert run.outcome in (RECOVERED, DEGRADED, TYPED_ERROR)
        assert any(run.outcome == RECOVERED for run in report.runs)

    def test_every_crash_run_loses_its_rank(self):
        # The kill point is drawn below the victim's own op count, so no
        # run of the CI sweep can pass by never crashing.
        report = _golden_sweep("crash")
        assert [run.injected for run in report.runs] == [1] * 36
        assert report.count(OK) == 0 and report.count(FAILED) == 0

    def test_root_lost_with_nobody_left_to_recover_is_the_typed_crash(self):
        # The analysis root dies on its last op, after every peer finished:
        # no survivor holds the ledger (this used to be a bare StopIteration).
        from repro.faults.chaos import _classify
        from repro.intransit import PipelineResult
        from repro.mpisim import RankCrashError

        crash = RankCrashError("rank 3 crashed by fault plan at op 9")
        results = [PipelineResult("sim")] * 3 + [crash, PipelineResult("analysis")]
        with pytest.raises(RankCrashError) as info:
            _classify(0, results)
        assert info.value is crash

    def test_runs_record_fault_stats(self):
        report = run_chaos("crash", seed=0, runs=3, ops=80)
        assert all(run.stats.get("crashes") == 1 for run in report.runs)


class TestResizeMode:
    def test_resize_sweep_is_bitwise_or_typed(self):
        report = run_chaos("resize", seed=0, runs=6, ops=80)
        assert report.passed
        workloads = {run.workload for run in report.runs}
        assert "resize" in workloads
        assert "pipeline-resize" in workloads
        # No crashes are injected, so nothing should *need* recovery.
        assert all(
            run.outcome in ("ok", "typed-error") for run in report.runs
        )

    def test_modes_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "--crashes", "--resizes"])
        assert exit_info.value.code == 2
        assert "not allowed with" in capsys.readouterr().err


class TestMemoryMode:
    def test_bounded_and_auto_split_lanes_and_stay_bitwise(self):
        runs = [
            run for run in _golden_sweep("memory").runs
            if run.workload == "redistribute"
        ]
        # ``allocs`` counts staged payloads.  Run 0's budget is the worst
        # round itself, so it sends every lane whole ...
        whole = runs[0]
        assert (whole.index, whole.outcome) == (0, OK)
        # ... and under a smaller one every backend splits lanes into pieces.
        for backend in MEMORY_BACKENDS:
            assert any(
                run.outcome == OK
                and run.stats["allocs"] > whole.stats["allocs"]
                and run.peak_bytes <= run.budget_bytes
                for run in runs if run.backend == backend
            ), backend


class TestGolden:
    """Every row of every sweep at its CI arguments (the edge sweep at its
    tier-1 size: the seeded plan only), pinned.  Rows the file lists under
    ``timing`` depend on wall-clock deadlines; their named fields are
    exempt, with the reason beside them."""

    @pytest.mark.parametrize("scenario", list(GOLDEN["sweeps"]))
    def test_sweep_matches_golden(self, scenario):
        report = _golden_sweep(scenario)
        assert report.passed, report.summary()
        fields = ("index", "workload", "backend", "executor", "transport",
                  "outcome", "error", "injected")
        exempt = {
            (entry["run"], name)
            for entry in GOLDEN["timing"] if entry["scenario"] == scenario
            for name in entry["fields"]
        }
        rows = [_pins(run) for run in report.runs]
        golden = GOLDEN["sweeps"][scenario]["rows"]
        assert len(rows) == len(golden)
        for row, pinned in zip(rows, golden):
            for name, got, want in zip(fields, row, pinned):
                if (pinned[0], name) not in exempt:
                    assert got == want, (scenario, pinned, row)


class TestToDict:
    def test_report_round_trips_to_json(self, tmp_path):
        report = run_chaos("message", seed=0, runs=3, ops=40, nprocs=2)
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
        path = tmp_path / "report.json"
        code = main(["chaos", "--runs", "4", "--ops", "80", "--crashes",
                     "--quiet", "--json", str(path)])
        assert code == 0
        assert str(path) in capsys.readouterr().out
        data = json.loads(path.read_text())
        assert data["passed"] is True
        assert sum(data["counts"].values()) == 4

    @pytest.mark.parametrize("argv, complaint", [
        (["--nprocs", "1"], "nprocs >= 2"),
        (["--ops", "-5"], "ops >= 1"),
        (["--runs", "0"], "runs >= 1"),
        (["--edge", "--clients", "0"], "clients >= 1"),
        (["--edge", "--clients", "-1"], "clients >= 1"),
        (["--edge", "--nprocs", "8"], "takes no nprocs"),
        (["--crashes", "--clients", "9"], "takes no clients"),
    ])
    def test_bad_arguments_exit_two_with_an_error_line(self, capsys, argv, complaint):
        assert main(["chaos", "--quiet", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and complaint in captured.err
        assert "chaos:" not in captured.out  # nothing ran

    def test_scenario_flags_are_one_exclusive_group(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "--edge", "--memory"])
        assert exit_info.value.code == 2


def _dumps(obj, indent: int = 0) -> str:
    """JSON with short values (a row, an args dict) kept on one line."""
    flat = json.dumps(obj)
    if len(flat) <= 120 or not isinstance(obj, (dict, list)):
        return flat
    pad = " " * (indent + 1)
    if isinstance(obj, dict):
        items = [f"{pad}{json.dumps(k)}: {_dumps(v, indent + 1)}" for k, v in obj.items()]
    else:
        items = [pad + _dumps(value, indent + 1) for value in obj]
    opener, closer = "{}" if isinstance(obj, dict) else "[]"
    return opener + "\n" + ",\n".join(items) + "\n" + " " * indent + closer


def _record() -> None:
    """Re-record every sweep's rows (the ``timing`` list is kept by hand)."""
    for scenario, sweep in GOLDEN["sweeps"].items():
        report = run_chaos(scenario, **sweep["args"])
        assert report.passed, report.summary()
        sweep["rows"] = [_pins(run) for run in report.runs]
    GOLDEN_PATH.write_text(_dumps(GOLDEN) + "\n")


if __name__ == "__main__":
    _record()
