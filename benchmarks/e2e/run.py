#!/usr/bin/env python3
"""The repository's benchmark: five workloads from redistribution to socket.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--repeats R] --out FILE

The first form is one run: the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics of ``BENCHMARK.json`` for ``--trace 0`` (tracing off) and its
per-layer metrics for ``--trace 1`` (the benchmark's own spans and probes
around each layer's public calls).  The second form records: every workload
(or the one named) runs ``--repeats`` times end to end on consecutive seeds
and three times traced, and ``--out`` receives the medians, the run-to-run
spreads and the machine header — the file ``compare.py`` reads.

Each measurement runs in fresh child processes of this file (``--child``),
so ``ru_maxrss``, singletons and the thread-placement regime start clean;
the end-to-end run starts three and reports the quietest of their segments.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    Context,
    SpanLog,
    iqr_spread,
    machine_header,
    median,
    peak_rss_mib,
    quietest,
    spawn_child,
)

#: Child processes per end-to-end run.  The timing metrics are those of the
#: quietest segment of all their segments, ``setup_s`` that of the quickest
#: child, ``peak_rss_mib`` the median over them.
PROCESSES = 3
#: Traced runs per workload when running all five: the recorded per-layer
#: value is the median over them, so one disturbed run cannot move it.
TRACED_RUNS = 3
#: One run must end within 180 s, however many children it starts.
RUN_TIMEOUT_S = 165

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


def _workload_fn(name: str):
    import inputs
    from workloads import intransit_lbm, redist, serve_edge, tiff_load

    return {
        "redist_bulk": lambda ctx: redist.run(ctx, inputs.BULK),
        "redist_rounds": lambda ctx: redist.run(ctx, inputs.ROUNDS),
        "tiff_load": tiff_load.run,
        "intransit_lbm": intransit_lbm.run,
        "serve_edge": serve_edge.run,
    }[name]


# -- child: one fresh process, one workload ------------------------------------------


def child_main(args) -> int:
    if args.pin and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        workdir=Path(args.workdir),
        started_at=args.started_at,
        trace_out=Path(args.trace_out) if args.trace_out else None,
        log=SpanLog(enabled=bool(args.trace)),
    )
    result = _workload_fn(args.workload)(ctx)
    result["setup_s"] = ctx.setup_s
    result["peak_rss_mib"] = peak_rss_mib()
    ctx.write_trace()
    print(json.dumps(result))
    return 0


# -- parent: aggregate, print, write -------------------------------------------------


def run_end_to_end(workload, seed, seconds, workdir) -> dict:
    children = [
        spawn_child(workload, seed, seconds / PROCESSES, 0, workdir, RUN_TIMEOUT_S / PROCESSES)
        for _ in range(PROCESSES)
    ]
    latencies = [v for c in children for v in c["segment_latency_ms"]]
    rates = [v for c in children for v in c["segment_rate"]]
    values = {
        "setup_s": min(c["setup_s"] for c in children),
        "peak_rss_mib": median([c["peak_rss_mib"] for c in children]),
        "latency_ms_p50": quietest(latencies),
        "throughput_per_s": 1.0 / quietest([1.0 / rate for rate in rates]),
    }
    return {
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "values": values,
        "segments": {"latency_ms": latencies, "rate": rates},
    }


def run_per_layer(workload, seed, seconds, workdir, trace_out=None) -> dict:
    child = spawn_child(workload, seed, seconds, 1, workdir, RUN_TIMEOUT_S, trace_out)
    measured = child["metrics"]
    unknown = sorted(set(measured) - set(PER_LAYER))
    if unknown:
        raise SystemExit(f"{workload}: metrics missing from BENCHMARK.json: {unknown}")
    # A layer that is not on this workload's path spends nothing there.
    values = {name: float(measured.get(name, 0.0)) for name in PER_LAYER}
    return {
        "attempted": child["attempted"],
        "failed": child["failed"],
        "values": values,
        "measured": sorted(measured),
        "notes": child.get("notes", {}),
    }


def contract_line(result: dict, spec: dict) -> str:
    correct = result["failed"] == 0
    metrics = {
        name: {"value": result["values"][name], "unit": spec[name]["unit"]}
        for name in spec
    } if correct else {}
    return json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })


def print_values(workload: str, result: dict, spec: dict, only=None) -> None:
    for name, meta in spec.items():
        if only is not None and name not in only:
            continue
        print(f"{workload:14s} {name:38s} {result['values'][name]:14.6g} {meta['unit']}")


def run_one(args, workdir) -> int:
    if args.trace:
        result = run_per_layer(args.workload, args.seed, args.seconds, workdir, args.trace_out)
        spec, only = PER_LAYER, result["measured"]
    else:
        result = run_end_to_end(args.workload, args.seed, args.seconds, workdir)
        spec, only = END_TO_END, None
    if result["failed"] == 0:
        print_values(args.workload, result, spec, only)
    print(contract_line(result, spec))
    return 0 if result["failed"] == 0 else 1


def record_workload(workload: str, args, workdir) -> dict:
    """``--repeats`` end-to-end runs on consecutive seeds, their spread
    recorded beside each bound, and ``TRACED_RUNS`` traced runs."""
    runs = [
        run_end_to_end(workload, args.seed + i, args.seconds, workdir)
        for i in range(args.repeats)
    ]
    traced = [
        run_per_layer(workload, args.seed + i, args.seconds, workdir,
                      args.trace_out if i == 0 else None)
        for i in range(TRACED_RUNS)
    ]
    end_to_end = {}
    for name, meta in END_TO_END.items():
        series = [r["values"][name] for r in runs]
        end_to_end[name] = {
            "value": median(series), "unit": meta["unit"], "better": meta["better"],
            "bound": meta["bound"], "spread": iqr_spread(series), "runs": series,
            "n": sum(len(r["segments"]["latency_ms"]) for r in runs),
        }
    per_layer = {}
    for name in traced[0]["measured"]:
        series = [t["values"][name] for t in traced]
        per_layer[name] = {
            "value": median(series), "unit": PER_LAYER[name]["unit"], "runs": series,
        }
    return {
        "attempted": sum(r["attempted"] for r in runs + traced),
        "failed": sum(r["failed"] for r in runs + traced),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "notes": [t["notes"] for t in traced if t["notes"]],
    }


def run_recorded(args, workdir) -> int:
    record = {
        "machine": machine_header(),
        "seed": args.seed,
        "repeats": args.repeats,
        "traced_runs": TRACED_RUNS,
        "run_seconds": args.seconds,
        "io": "TIFF reads come from the page cache; sockets are loopback",
        "workloads": {},
    }
    for workload in [args.workload] if args.workload else WORKLOADS:
        entry = record["workloads"][workload] = record_workload(workload, args, workdir)
        if entry["failed"]:
            print(f"{workload}: {entry['failed']} operation(s) failed their oracle; "
                  "no metrics reported", file=sys.stderr)
            return 1
        for name, value in entry["end_to_end"].items():
            print(f"{workload:14s} {name:38s} {value['value']:14.6g} {value['unit']:6s}"
                  f" spread {value['spread']:.3f} bound {value['bound']} n {value['n']}")
        for name, value in entry["per_layer"].items():
            print(f"{workload:14s} {name:38s} {value['value']:14.6g} {value['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
        print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="end-to-end runs per workload when recording with --out")
    parser.add_argument("--out", help="write the results (with machine header) here")
    parser.add_argument("--trace-out", help="Chrome trace-event file of the traced run's spans")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pin", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--started-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    import repro  # noqa: F401 - fail here, before any child, when the program is absent

    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if args.workload and not args.out:
            return run_one(args, workdir)
        return run_recorded(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
