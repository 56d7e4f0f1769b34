"""Command-line interface: ``python -m repro <artifact>``.

Each subcommand regenerates one paper artifact and prints it next to the
published numbers (the same harnesses `examples/reproduce_paper.py` and the
benchmark suite use).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

from .core.engine import BACKENDS


def _cmd_e1(args: argparse.Namespace) -> int:
    from .bench import e1

    print(e1.report())
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from .bench import table2

    print(table2.report_model(network=args.network))
    if args.native:
        stack_dir = table2.prepare_native_stack(
            Path(tempfile.mkdtemp(prefix="ddr_cli_t2_"))
        )
        print()
        print(table2.report_native(stack_dir))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from .bench import table3

    print(table3.report())
    return 0


def _cmd_table4(args: argparse.Namespace) -> int:
    from .bench import table4

    if args.fast:
        measured = table4.measure_compression(
            nx=162, ny=65, m=4, n=2, steps=600, output_every=100
        )
        print(table4.report(measured))
    else:
        _, measured, fit = table4.measure_two_scales()
        print(table4.report(measured, fit))
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    from .bench import fig3

    print(fig3.report())
    return 0


def _cmd_fig45(args: argparse.Namespace) -> int:
    from .bench import fig45

    print(fig45.report())
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from .io.assignment import StackGeometry
    from .netmodel import COOLEY, tornado

    stack = StackGeometry(width=1024, height=512, n_images=512, bytes_per_pixel=4)
    print("headline-speedup tornado (+-30% per fitted model constant):")
    for bar in tornado(cluster=COOLEY, stack=stack):
        print(
            f"  {bar.parameter:>24}: {bar.low_speedup:6.1f}x .. "
            f"{bar.high_speedup:6.1f}x (swing {bar.swing:5.1f})"
        )
    return 0


def _cmd_engines(args: argparse.Namespace) -> int:
    from .core import Box, compute_global_plan
    from .netmodel import COOLEY, engine_cost, executed_plan

    nprocs = args.nprocs
    side = args.side
    if side % nprocs != 0:
        print(f"error: --side {side} must be a multiple of --nprocs {nprocs}",
              file=sys.stderr)
        return 2
    rows = side // nprocs

    def ring(rank):
        own = [Box((0, rank * rows), (side, rows))]
        need = Box((0, ((rank + 1) % nprocs) * rows), (side, rows))
        return own, need

    def transpose(rank):
        own = [Box((0, rank * rows), (side, rows))]
        need = Box((rank * rows, 0), (rows, side))
        return own, need

    def round_robin(rank):
        # Single rows dealt round-robin: one planned round per row a rank owns.
        own = [Box((0, row), (side, 1)) for row in range(rank, side, nprocs)]
        return own, transpose(rank)[1]

    patterns = {
        "sparse_ring": ring, "dense_transpose": transpose, "round_robin_rows": round_robin,
    }
    print(
        f"exchange-engine cost model ({nprocs} ranks, {side}x{side} float32, "
        f"cluster {COOLEY.name}):"
    )
    for name, layout in patterns.items():
        plan = compute_global_plan(
            [layout(r)[0] for r in range(nprocs)],
            [layout(r)[1] for r in range(nprocs)],
            element_size=4,
        )
        sched = plan.schedules[0]
        print(f"\n{name}: {sched.nrounds} round(s), "
              f"max partners/round {sched.max_partners}")
        for backend in BACKENDS:
            cost = engine_cost(COOLEY, plan, backend)
            detail = ""
            if backend == "auto":
                detail = f"  rounds -> {', '.join(cost.round_engines)}"
            # What the engine runs: the planned rounds regrouped (no budget: merged).
            merged = executed_plan(plan, backend)
            messages = [max(s.message_count for s in p.schedules) for p in (plan, merged)]
            print(
                f"  {backend:>9}: {cost.total_s * 1e6:9.1f} us  "
                f"(alpha {cost.alpha_s * 1e6:7.1f}, msgs {cost.message_s * 1e6:7.1f}, "
                f"xfer {cost.transfer_s * 1e6:7.1f})  planned {plan.nrounds} rounds / "
                f"{messages[0]} msgs, executed {merged.nrounds} / {messages[1]}: "
                f"{engine_cost(COOLEY, merged, backend).total_s * 1e6:.1f} us{detail}"
            )
    return 0


def _trace_intransit(args: argparse.Namespace) -> None:
    """Run a small in-transit pipeline (M sim + N analysis ranks)."""
    from .intransit import PipelineConfig, run_pipeline
    from .lbm import LbmConfig
    from .mpisim.executor import run_spmd

    config = PipelineConfig(
        lbm=LbmConfig(nx=args.nx, ny=args.ny),
        m=args.m,
        n=args.n,
        steps=args.steps,
        output_every=args.output_every,
        backend=args.backend,
    )
    run_spmd(
        config.m + config.n,
        lambda comm: run_pipeline(comm, config),
        executor=args.executor,
    )


def _trace_redistribute(args: argparse.Namespace) -> None:
    """Run a bare slab->transpose Redistributor loop on ``n`` ranks."""
    import numpy as np

    from .core import Box, Redistributor
    from .mpisim.executor import run_spmd

    nprocs, side, frames = args.n, args.nx, max(1, args.steps // args.output_every)
    if side % nprocs:
        raise SystemExit(f"--nx {side} must be a multiple of --n {nprocs}")
    rows = side // nprocs

    def fn(comm):
        rank = comm.rank
        red = Redistributor(comm, ndims=2, dtype=np.float32, backend=args.backend)
        red.setup(
            own=[Box((0, rank * rows), (side, rows))],
            need=Box((rank * rows, 0), (rows, side)),
        )
        data = np.full((rows, side), rank, dtype=np.float32)
        out = np.empty((rows, side), dtype=np.float32)
        for _ in range(frames):
            red.exchange([data], out)
        return True

    run_spmd(nprocs, fn, executor=args.executor)


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import MetricsRegistry, tracing, write_chrome_trace

    demos = {"intransit": _trace_intransit, "redistribute": _trace_redistribute}
    with tracing() as tracer:
        demos[args.demo](args)
    records = tracer.records()

    out = Path(args.out)
    write_chrome_trace(records, out)

    registry = MetricsRegistry()
    registry.ingest(records)
    print(registry.summary(per_rank=args.per_rank))
    ranks = sorted({r.rank for r in records if r.rank is not None})
    print()
    print(
        f"captured {len(records)} spans across {len(ranks)} ranks -> {out}\n"
        f"view it at https://ui.perfetto.dev (or chrome://tracing): "
        f"one process per rank, spans nest as flame graphs"
    )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from .faults.chaos import run_chaos

    try:
        report = run_chaos(
            args.scenario,
            seed=args.seed,
            runs=args.runs,
            ops=args.ops,
            nprocs=args.nprocs,
            clients=args.clients,
            log=None if args.quiet else print,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote machine-readable report -> {args.json}")
    return 0 if report.passed else 1


def _cmd_autoscale(args: argparse.Namespace) -> int:
    from .autoscale import autoscale_demo

    print(
        autoscale_demo(
            side=args.side,
            epochs=args.epochs,
            start_ranks=args.start_ranks,
            max_ranks=args.max_ranks,
            executor=args.executor,
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading
    import time
    import urllib.request

    from .serve import (
        EdgeLimits,
        FrameHub,
        LbmSource,
        OverloadController,
        SloPolicy,
        StreamEdge,
        SyntheticSource,
        run_viewers,
    )

    if args.source == "lbm":
        source = LbmSource(args.nx, args.ny, m=args.m,
                           steps_per_frame=args.steps_per_frame)
    else:
        source = SyntheticSource(args.nx, args.ny, m=args.m)
    controller = None
    if args.degrade == "ladder":
        policy = (
            SloPolicy() if args.slo_ms is None
            else SloPolicy(publish_slo_s=args.slo_ms / 1000.0)
        )
        controller = OverloadController(policy)
    hub = FrameHub(args.nx, args.ny, m=args.m, quality=args.quality,
                   backend=args.backend, max_viewers=args.max_viewers,
                   overload=controller)
    limits = (
        EdgeLimits() if args.max_conns is None
        else EdgeLimits(max_conns=args.max_conns)
    )
    edge = StreamEdge(hub, host=args.host, port=args.port, limits=limits)
    edge.serve_in_thread()
    period = 1.0 / args.fps if args.fps > 0 else 0.0
    final_frame = args.frames - 1

    if args.smoke_viewers:
        holder: dict = {}

        def attach() -> None:
            holder["reports"] = run_viewers(
                edge.port, args.smoke_viewers, final_frame
            )

        thread = threading.Thread(target=attach, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30.0
        while (hub.viewer_count() < args.smoke_viewers
               and time.monotonic() < deadline):
            time.sleep(0.01)
        connected = hub.viewer_count()
        for index, slabs in source.frames(args.frames):
            # force= guarantees the final frame beats any fps-rung stride.
            hub.publish(index, slabs, force=index == final_frame)
            if period:
                time.sleep(period)
        thread.join(timeout=90.0)
        reports = holder.get("reports", [])
        failures = [
            r for r in reports if r.error or r.last_frame != final_frame
        ]
        for report in failures[:10]:
            print(
                f"FAIL viewer {report.viewer} ({report.transport} "
                f"?{report.query}): last_frame={report.last_frame} "
                f"{report.error}",
                file=sys.stderr,
            )
        with urllib.request.urlopen(
            f"http://127.0.0.1:{edge.port}/healthz", timeout=10.0
        ) as response:
            healthy = (
                response.status == 200 and response.read().strip() == b"ok"
            )
        shed = int(hub.metrics.get("serve.viewers_shed"))
        stats = hub.stats()
        cache = stats["mapping_cache"]
        print(
            f"serve smoke: {len(reports) - len(failures)}/{len(reports)} "
            f"viewers saw frame {final_frame} "
            f"({connected} connected before publish)"
        )
        print(
            f"  layouts cached {cache['entries']}, mapping-cache hit rate "
            f"{cache['hit_rate']:.3f}, evictions {cache['evictions']}, "
            f"pool bytes {cache['pool_bytes']}"
        )
        print(
            f"  healthz {'ok' if healthy else 'NOT ok'}, viewers shed "
            f"{shed}, degrade "
            f"{stats['overload']['level_name'] if stats['overload'] else 'off'}"
        )
        if not healthy:
            print("FAIL: /healthz did not answer ok", file=sys.stderr)
        if shed:
            print(f"FAIL: {shed} viewers were shed during an unloaded smoke",
                  file=sys.stderr)
        edge.shutdown()
        hub.close()
        return 0 if reports and not failures and healthy and not shed else 1

    print(f"serving on http://{args.host}:{edge.port}/  (ctrl-C to stop)")
    try:
        for index, slabs in source.frames(args.frames):
            hub.publish(index, slabs, force=index == final_frame)
            if period:
                time.sleep(period)
    except KeyboardInterrupt:
        pass
    finally:
        edge.shutdown()
        hub.close()
    stats = hub.stats()
    print(
        f"published {stats['frames_published']} frames to "
        f"{stats['counters'].get('serve.viewers_connected', 0)} viewer(s)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts of 'Automated Dynamic Data "
        "Redistribution' (IPPS 2017).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("e1", help="Table I / Figure 1: the E1 example").set_defaults(
        fn=_cmd_e1
    )

    p2 = sub.add_parser("table2", help="Table II: TIFF load time")
    p2.add_argument("--network", choices=("analytic", "des"), default="analytic")
    p2.add_argument("--native", action="store_true",
                    help="also execute the native-scale loaders")
    p2.set_defaults(fn=_cmd_table2)

    sub.add_parser(
        "table3", help="Table III: Alltoallw scheduling (exact)"
    ).set_defaults(fn=_cmd_table3)

    p4 = sub.add_parser("table4", help="Table IV: raw vs JPEG output size")
    p4.add_argument("--fast", action="store_true", help="single small run")
    p4.set_defaults(fn=_cmd_table4)

    sub.add_parser("fig3", help="Figure 3: strong scaling").set_defaults(fn=_cmd_fig3)
    sub.add_parser(
        "fig45", help="Figures 4-5: M-to-N streaming layout"
    ).set_defaults(fn=_cmd_fig45)
    sub.add_parser(
        "sensitivity", help="model-calibration tornado (beyond the paper)"
    ).set_defaults(fn=_cmd_sensitivity)

    pe = sub.add_parser(
        "engines", help="per-engine exchange cost + auto-selection choices"
    )
    pe.add_argument("--nprocs", type=int, default=8)
    pe.add_argument("--side", type=int, default=256,
                    help="square field edge length (default 256)")
    pe.set_defaults(fn=_cmd_engines)

    pt = sub.add_parser(
        "trace",
        help="capture a Chrome/Perfetto trace of a demo workload",
        description="Run a demo under the tracer and export a Chrome "
        "trace-event JSON (one pid per rank) plus a span summary.",
    )
    pt.add_argument("demo", choices=("intransit", "redistribute"),
                    help="workload to trace")
    pt.add_argument("--out", default="trace.json", help="output JSON path")
    pt.add_argument("--backend", choices=BACKENDS,
                    default="auto", help="exchange engine (default auto)")
    pt.add_argument("--m", type=int, default=4, help="simulation ranks (intransit)")
    pt.add_argument("--n", type=int, default=2,
                    help="analysis ranks (intransit) / ranks (redistribute)")
    pt.add_argument("--nx", type=int, default=64, help="field width")
    pt.add_argument("--ny", type=int, default=32, help="field height (intransit)")
    pt.add_argument("--steps", type=int, default=20, help="simulation steps")
    pt.add_argument("--output-every", type=int, default=10,
                    help="stream cadence in steps (intransit)")
    pt.add_argument("--per-rank", action="store_true",
                    help="print the per-rank histogram breakdown")
    pt.add_argument("--executor", choices=("thread", "process"), default=None,
                    help="rank executor (default: DDR_EXECUTOR env, else thread); "
                    "process forks one OS process per rank and merges the "
                    "per-process spans into one trace")
    pt.set_defaults(fn=_cmd_trace)

    pc = sub.add_parser(
        "chaos",
        help="seeded chaos sweep (self-healing gate): one runner, five scenarios",
        description="Run seeded chaos cases of one scenario — the message "
        "sweep (random fault schedules against every engine x transport "
        "combination plus in-transit pipeline runs) unless a flag picks "
        "another — and require bitwise-correct output, degradation by "
        "policy, or a clean typed error; hangs, bare exceptions, and silent "
        "corruption fail.  Exit 0 iff all runs pass, 2 on bad arguments.",
    )
    pc.add_argument("--seed", type=int, default=0, help="base plan seed")
    pc.add_argument("--runs", type=int, default=50,
                    help="number of seeded cases (default 50)")
    pc.add_argument("--ops", type=int, default=None,
                    help="fault-injection horizon in transport ops per rank "
                    "(transport scenarios; default 200)")
    pc.add_argument("--nprocs", type=int, default=None,
                    help="ranks per run (transport scenarios; default 4)")
    scenario = pc.add_mutually_exclusive_group()
    scenario.set_defaults(scenario="message")
    scenario.add_argument("--crashes", action="store_const", const="crash",
                          dest="scenario",
                          help="single-crash mode: kill one rank per run and "
                          "require ULFM-style shrink/recover (resilient "
                          "workloads)")
    scenario.add_argument("--resizes", action="store_const", const="resize",
                          dest="scenario",
                          help="resize mode: seeded mid-epoch grow/shrink "
                          "schedules (rank spawn + retire) under self-healing "
                          "faults; requires bitwise-correct output or a typed "
                          "error")
    scenario.add_argument("--memory", action="store_const", const="memory",
                          dest="scenario",
                          help="memory-pressure mode: run every schedule under "
                          "a staging budget shrinking from the workload's "
                          "measured peak, with seeded allocation faults; "
                          "requires bitwise-correct output (bounded/auto "
                          "lowering), degraded-by-policy frames, or a typed "
                          "MemoryBudgetError — never an OOM kill or hang")
    scenario.add_argument("--edge", action="store_const", const="edge",
                          dest="scenario",
                          help="edge mode: storm a live serving edge with "
                          "seeded misbehaving clients (slow-loris, garbage, WS "
                          "violations, half-closed sockets, connect floods, "
                          "never-reading consumers); requires OK / "
                          "degraded-by-policy / typed-error outcomes")
    pc.add_argument("--clients", type=int, default=None,
                    help="misbehaving clients per edge storm (--edge; default 5)")
    pc.add_argument("--json", metavar="PATH", default=None,
                    help="write the machine-readable report to PATH")
    pc.add_argument("--quiet", action="store_true",
                    help="suppress the per-run log lines")
    pc.set_defaults(fn=_cmd_chaos)

    pa = sub.add_parser(
        "autoscale",
        help="metrics-driven elastic resize demo (grow + shrink, live data)",
        description="Drive ResilientRedistributor.resize from an "
        "Autoscaler watching MetricsRegistry signals: a synthetic demand "
        "curve pushes queue depth over the grow watermark, the world "
        "spawns ranks one step at a time, then drains back down, with "
        "every epoch's redistribution checked bitwise.",
    )
    pa.add_argument("--side", type=int, default=96,
                    help="square field edge length (default 96)")
    pa.add_argument("--epochs", type=int, default=14,
                    help="exchange epochs to run (default 14)")
    pa.add_argument("--start-ranks", type=int, default=2,
                    help="initial world size (default 2)")
    pa.add_argument("--max-ranks", type=int, default=5,
                    help="autoscaler ceiling; spawn slots are reserved up "
                    "to this size (default 5)")
    pa.add_argument("--executor", choices=("thread", "process"), default=None,
                    help="rank executor (default: DDR_EXECUTOR env, else "
                    "thread)")
    pa.set_defaults(fn=_cmd_autoscale)

    ps = sub.add_parser(
        "serve",
        help="many-viewer streaming hub (HTTP/WebSocket MJPEG edge)",
        description="Run a frame producer through the serving hub and "
        "expose it over HTTP: / (browser page), /mjpeg (multipart "
        "stream), /ws (WebSocket), /frame, /stats.  Every route accepts "
        "x/y/w/h/mip/parts query parameters; each distinct layout gets "
        "its own DDR mapping from a bounded LRU cache.  --smoke-viewers "
        "N runs N synthetic WS+HTTP clients against the edge and exits "
        "nonzero unless every one of them saw the final frame.",
    )
    ps.add_argument("--nx", type=int, default=128, help="field width")
    ps.add_argument("--ny", type=int, default=64, help="field height")
    ps.add_argument("--m", type=int, default=4,
                    help="producer slab count (default 4)")
    ps.add_argument("--frames", type=int, default=600,
                    help="frames to publish before exiting (default 600)")
    ps.add_argument("--fps", type=float, default=20.0,
                    help="publish rate; 0 publishes as fast as possible")
    ps.add_argument("--source", choices=("lbm", "synthetic"), default="lbm",
                    help="frame producer (default lbm vorticity)")
    ps.add_argument("--steps-per-frame", type=int, default=10,
                    help="LBM steps between frames (default 10)")
    ps.add_argument("--quality", type=int, default=80,
                    help="JPEG quality (default 80)")
    ps.add_argument("--backend", choices=BACKENDS,
                    default=None, help="exchange engine (default auto)")
    ps.add_argument("--host", default="127.0.0.1")
    ps.add_argument("--port", type=int, default=8737,
                    help="TCP port; 0 picks a free one (default 8737)")
    ps.add_argument("--smoke-viewers", type=int, default=0, metavar="N",
                    help="run N synthetic viewers and gate on delivery, "
                    "/healthz answering ok, and zero shed viewers")
    ps.add_argument("--max-viewers", type=int, default=None,
                    help="hub-wide viewer admission cap (503 + Retry-After "
                    "beyond it; default unlimited)")
    ps.add_argument("--max-conns", type=int, default=None,
                    help="concurrent TCP connection cap at the edge "
                    "(503 + Retry-After beyond it; default 256)")
    ps.add_argument("--slo-ms", type=float, default=None,
                    help="publish-latency SLO in milliseconds for the "
                    "degradation ladder (default 250)")
    ps.add_argument("--degrade", choices=("off", "ladder"), default="ladder",
                    help="overload response: 'ladder' walks quality->mip->"
                    "fps->shed with hysteresis, 'off' disables the "
                    "controller (default ladder)")
    ps.set_defaults(fn=_cmd_serve)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
