"""Unit tests of the benchmark's own helpers (not collected by tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import re
from pathlib import Path

import pytest

import compare
import harness
from harness import Span, SpanLog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


# -- percentile rule ---------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    assert harness.percentile(list(range(199)), 95) is None
    assert harness.percentile(list(range(200)), 95) == 189  # ten samples lie beyond
    assert harness.percentile(list(range(99)), 90) is None
    assert harness.percentile(list(range(100)), 90) == 89
    assert harness.percentile(list(range(20)), 50) == 9
    assert harness.percentile(list(range(19)), 50) is None


def test_iqr_spread_is_quartile_distance_over_median():
    values = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 100.0]
    assert harness.iqr_spread(values) == 0.0  # one odd run cannot move it
    assert harness.iqr_spread([1.0]) == 0.0
    assert harness.iqr_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


def test_quietest_is_the_minimum_unless_it_is_another_regime():
    assert harness.quietest([44.0, 38.0, 51.0, 40.0, 39.5]) == 38.0
    # rank threads briefly on one core: four times faster is not "quiet"
    assert harness.quietest([44.0, 38.0, 11.0, 40.0, 39.5]) == 38.0
    assert harness.quietest([44.0, 38.0, 11.0, 12.0, 39.5]) == 38.0
    # a noisy run does not make the true floor look like another regime
    assert harness.quietest([38.0, 45.0, 58.0, 70.0, 90.0]) == 38.0
    assert harness.quietest([7.0]) == 7.0 and harness.quietest([7.0, 1.0]) == 1.0


def test_slowest_rank_is_per_iteration_maximum():
    assert harness.slowest_rank([[1, 5, 2], [3, 4, 9]]) == [3, 5, 9]


# -- spans and self time -----------------------------------------------------------


def test_self_time_subtracts_what_children_cover():
    spans = [
        Span(0, None, "frame", "intransit", 0, 7, 0.0, 10.0),
        Span(1, 0, "exchange", "core", 0, 7, 1.0, 3.0),
        Span(2, 0, "encode", "jpeg", 0, 7, 4.0, 9.0),
        Span(3, 2, "huffman", "jpeg", 0, 7, 5.0, 6.0),
    ]
    own = harness.self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 4.0, 3: 1.0}
    # self times of one tree sum to the root's duration
    assert sum(own.values()) == spans[0].duration
    assert harness.layer_self_totals(spans) == {"intransit": 3.0, "core": 2.0, "jpeg": 5.0}
    assert harness.op_self_totals(spans) == {7: 10.0}


def test_self_time_clips_children_and_counts_overlap_once():
    spans = [
        Span(0, None, "parent", "a", None, None, 0.0, 10.0),
        Span(1, 0, "early", "b", None, None, -1.0, 4.0),   # starts before its parent
        Span(2, 0, "overlap", "b", None, None, 3.0, 6.0),  # overlaps its sibling
    ]
    assert harness.self_times(spans)[0] == pytest.approx(4.0)


def test_work_shares_leave_waiting_out():
    spans = [
        Span(0, None, "step", "lbm", 0, 0, 0.0, 3.0),
        Span(1, None, "recv", "intransit", 4, 0, 0.0, 3.0, wait=True),
        Span(2, None, "encode", "jpeg", 4, 0, 3.0, 4.0),
    ]
    assert harness.work_shares(spans) == {"lbm": 0.75, "jpeg": 0.25}


def test_span_log_records_parent_rank_and_shared_op():
    log = SpanLog()
    with log.span("outer", "io", rank=2, op=5):
        with log.span("inner", "core", rank=2, op=5):
            pass
    inner, outer = log.spans
    assert (inner.name, inner.parent, inner.rank, inner.op) == ("inner", outer.sid, 2, 5)
    assert outer.parent is None and outer.start <= inner.start <= inner.end <= outer.end


def test_disabled_span_log_records_nothing():
    log = SpanLog(enabled=False)
    with log.span("x", "core"):
        pass
    assert log.spans == []


def test_chrome_trace_has_one_pid_per_rank_and_the_op_as_arg():
    spans = [
        Span(0, None, "exchange", "core", 0, 3, 1.0, 1.5),
        Span(1, None, "exchange", "core", 1, 3, 1.0, 1.25),
        Span(2, None, "publish", "serve.hub", None, 4, 2.0, 2.5),
    ]
    trace = harness.chrome_trace(spans)
    json.dumps(trace)  # serialisable
    names = {e["pid"]: e["args"]["name"] for e in trace["traceEvents"] if e["ph"] == "M"}
    assert names == {0: "rank 0", 1: "rank 1", 2: "driver"}
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert [e["pid"] for e in complete] == [0, 1, 2]
    assert complete[0]["args"]["op"] == 3 and complete[0]["ts"] == 0.0
    assert complete[1]["dur"] == pytest.approx(0.25e6)


# -- compare.py: bound, unresolved, refusal ---------------------------------------------


def test_judge_bound_and_direction():
    assert compare.judge(100, 109, "lower", 0.10, 0.02) == compare.OK
    assert compare.judge(100, 111, "lower", 0.10, 0.02) == compare.REGRESSION
    assert compare.judge(100, 50, "lower", 0.10, 0.02) == compare.OK  # better
    assert compare.judge(100, 89, "higher", 0.10, 0.02) == compare.REGRESSION
    assert compare.judge(100, 120, "higher", 0.10, 0.02) == compare.OK


def test_judge_reports_unresolved_when_spread_exceeds_bound():
    assert compare.judge(100, 100, "lower", 0.10, 0.15) == compare.UNRESOLVED
    assert compare.judge(100, 200, "lower", 0.10, 0.15) == compare.UNRESOLVED


def _record(value, spread=0.01, **machine):
    header = {"cpu_count": 2, "sched_getaffinity": [0, 1], "python": "3.11.7", "numpy": "2.4.6"}
    header.update(machine)
    entry = {"value": value, "unit": "ms", "better": "lower", "bound": 0.1, "spread": spread}
    return {"machine": header, "workloads": {"w": {"end_to_end": {"latency_ms_p50": entry}}}}


def test_compare_main_exit_codes(tmp_path, capsys):
    def run(a, b):
        (tmp_path / "a.json").write_text(json.dumps(a))
        (tmp_path / "b.json").write_text(json.dumps(b))
        return compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")])

    assert run(_record(100), _record(105)) == 0
    assert run(_record(100), _record(120)) == 1
    assert "latency_ms_p50" in capsys.readouterr().out  # names metric and workload
    assert run(_record(100), _record(120, spread=0.3)) == 0  # unresolved, not a regression
    assert "unresolved" in capsys.readouterr().out


@pytest.mark.parametrize("key,value", [
    ("cpu_count", 1), ("sched_getaffinity", [0]), ("python", "3.12.0"), ("numpy", "1.26.0"),
])
def test_compare_refuses_different_machines(tmp_path, capsys, key, value):
    (tmp_path / "a.json").write_text(json.dumps(_record(100)))
    (tmp_path / "b.json").write_text(json.dumps(_record(100, **{key: value})))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
    assert key in capsys.readouterr().err


# -- the files themselves ------------------------------------------------------------------


def test_only_package_level_imports_of_the_program():
    """ROADMAP item 3 deletes shims and item 5 renames spans: the benchmark
    may lean on package-level exports only (plus the ws framing helpers)."""
    deep = re.compile(r"^\s*(?:from|import)\s+(repro\.\w+\.[\w.]+)", re.MULTILINE)
    offenders = {
        f"{path.name}: {match}"
        for path in HERE.rglob("*.py")
        for match in deep.findall(path.read_text())
        if match != "repro.serve.ws"
    }
    assert not offenders


def test_benchmark_json_meets_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert 2 <= len(spec["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and metric["better"] in ("lower", "higher")
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(unit.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert (4 + 22 * len(spec["workloads"])) * (spec["run_seconds"] + 12) < 3420
