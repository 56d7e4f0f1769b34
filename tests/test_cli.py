"""CLI tests (direct invocation of the entry point, no subprocess)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if isinstance(a, type(parser._actions[-1]))
        )
        # Smoke: parse each known command.
        for command in ("e1", "table3", "fig3", "fig45", "sensitivity"):
            args = parser.parse_args([command])
            assert args.command == command
            assert callable(args.fn)

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table2_flags(self):
        args = build_parser().parse_args(["table2", "--native"])
        assert args.native
        assert not build_parser().parse_args(["table2"]).native
        # One cost model: the network-model switch is gone.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["table2", "--network", "des"])
        assert exc.value.code == 2

    def test_autoscale_is_an_unknown_command(self, capsys):
        # The library ships the resize mechanism and the caller decides
        # when to resize: the policy sub-command is gone.
        with pytest.raises(SystemExit) as exc:
            main(["autoscale"])
        assert exc.value.code == 2
        assert "invalid choice: 'autoscale'" in capsys.readouterr().err


class TestExecution:
    def test_e1(self, capsys):
        assert main(["e1"]) == 0
        out = capsys.readouterr().out
        assert "matches paper Table I: True" in out

    def test_fig45(self, capsys):
        assert main(["fig45"]) == 0
        out = capsys.readouterr().out
        assert "3/3/2/2" in out

    @pytest.mark.slow
    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "4315.12" in out  # paper column present

    def test_sensitivity(self, capsys):
        assert main(["sensitivity"]) == 0
        out = capsys.readouterr().out
        assert "read_decode_bw" in out

    def test_table4_fast(self, capsys):
        assert main(["table4", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out


class TestServe:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.source == "lbm"
        assert args.port == 8737
        assert args.smoke_viewers == 0

    def test_serve_overload_flag_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.max_viewers is None
        assert args.max_conns is None
        assert args.slo_ms is None
        assert args.degrade == "ladder"

    def test_serve_overload_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--max-viewers", "16", "--max-conns", "64",
             "--slo-ms", "250", "--degrade", "off"]
        )
        assert args.max_viewers == 16
        assert args.max_conns == 64
        assert args.slo_ms == 250.0
        assert args.degrade == "off"

    def test_serve_smoke_gates_on_delivery(self, capsys):
        assert (
            main(
                [
                    "serve", "--nx", "32", "--ny", "16", "--m", "2",
                    "--frames", "4", "--fps", "0", "--source", "synthetic",
                    "--port", "0", "--smoke-viewers", "10",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "10/10 viewers saw frame 3" in out
        assert "mapping-cache hit rate" in out
        assert "healthz ok" in out
        assert "viewers shed 0" in out


class TestEdgeChaos:
    def test_chaos_edge_flags_parse(self):
        args = build_parser().parse_args(["chaos", "--edge", "--clients", "3"])
        assert args.scenario == "edge"
        assert args.clients == 3
        assert args.runs == 50  # shared default with transport chaos
        assert build_parser().parse_args(["chaos"]).scenario == "message"

    def test_chaos_edge_excludes_transport_modes(self, capsys):
        # one argparse group: exit 2 with usage, before anything runs
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "--edge", "--crashes"])
        assert exit_info.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_chaos_edge_single_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "edge.json"
        assert (
            main(
                ["chaos", "--edge", "--runs", "1", "--clients", "2",
                 "--seed", "4", "--quiet", "--json", str(out)]
            )
            == 0
        )
        report = json.loads(out.read_text())
        assert report["passed"] is True
        (run,) = report["runs"]
        assert run["workload"] == "edge-storm"
        assert run["outcome"] in ("ok", "degraded", "typed-error")
        assert "chaos: 1 runs" in capsys.readouterr().out


class TestTrace:
    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "intransit"])
        assert args.demo == "intransit"
        assert args.out == "trace.json"
        assert args.backend == "auto"

    def test_trace_intransit_writes_perfetto_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert (
            main(
                [
                    "trace", "intransit", "--out", str(out),
                    "--nx", "32", "--ny", "16", "--steps", "10",
                    "--output-every", "10",
                ]
            )
            == 0
        )
        trace = json.loads(out.read_text())
        events = trace["traceEvents"]
        # one process_name per rank (4 sim + 2 analysis)
        meta = [e for e in events if e["ph"] == "M" and e["name"] == "process_name"]
        assert {e["args"]["name"] for e in meta} >= {f"rank {r}" for r in range(6)}
        rounds = [e for e in events if e["ph"] == "X" and e["name"] == "ddr.round"]
        assert rounds
        assert all(e["args"]["backend"] in ("alltoallw", "p2p") for e in rounds)
        stdout = capsys.readouterr().out
        assert "ddr.round" in stdout  # summary table printed
        assert "perfetto" in stdout

    def test_trace_redistribute_smoke(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert (
            main(
                [
                    "trace", "redistribute", "--out", str(out),
                    "--backend", "p2p", "--n", "2", "--nx", "16",
                ]
            )
            == 0
        )
        events = json.loads(out.read_text())["traceEvents"]
        assert any(
            e["ph"] == "X" and e["name"] == "ddr.exchange"
            and e["args"]["backend"] == "p2p"
            for e in events
        )
        assert "captured" in capsys.readouterr().out


class TestSizeArguments:
    """Size options take one positive-int type: 0 or below exits 2 with
    argparse's ``error:`` line before any rank starts, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["engines", "--nprocs", "0"],
        ["engines", "--nprocs", "-2"],
        ["engines", "--side", "0"],
        ["trace", "redistribute", "--n", "0"],
        ["trace", "redistribute", "--nx", "0"],
        ["trace", "intransit", "--m", "0"],
    ], ids=" ".join)
    def test_non_positive_size_exits_2(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + (["--out", str(tmp_path / "t.json")] if argv[0] == "trace" else []))
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "must be a positive integer" in err
        assert "Traceback" not in err


class TestServeQuality:
    @pytest.mark.parametrize("quality", ["0", "101"])
    def test_out_of_range_quality_exits_2(self, quality, capsys):
        code = main(
            ["serve", "--nx", "32", "--ny", "16", "--m", "2", "--frames", "2",
             "--fps", "0", "--source", "synthetic", "--port", "0",
             "--smoke-viewers", "2", "--quality", quality]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "quality must be in [1, 100]" in err
