"""``tiff_load``: paper use case A / Table II — the cold path.

Every load decodes TIFF slices, builds a fresh ``Redistributor``, sets its
mapping up and runs the first exchange: nothing is cached, so work moved out
of the steady state into set-up shows here.  Reads come from the page cache
(the stack is written moments earlier); what is measured is decode, mapping
set-up and exchange, not a disk.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import Redistributor
from repro.imaging import write_stack
from repro.io import (
    Assignment,
    load_stack_ddr,
    load_stack_no_ddr,
    owned_chunks,
    stack_geometry,
)
from repro.mpisim import run_spmd
from repro.utils import MiB
from repro.volren import grid_boxes, grid_shape

import oracles
from harness import Context, SpanLog, median, slowest_rank, work_shares
from inputs import RANKS, STACK, phantom_slices
from workloads import probe_launch_ms

LAUNCHES = 2  # run_spmd launches per child process
DIMS = (STACK.width, STACK.height, STACK.depth)

LOADERS = {
    "consecutive": lambda comm, stack, grid: load_stack_ddr(
        comm, stack, grid, Assignment.CONSECUTIVE),
    "roundrobin": lambda comm, stack, grid: load_stack_ddr(
        comm, stack, grid, Assignment.ROUND_ROBIN),
    "noddr": load_stack_no_ddr,
}


def _write(ctx: Context, slices):
    directory = ctx.workdir / f"stack-{time.time_ns()}"
    return write_stack(directory, STACK.depth, lambda z: slices[z])


def _loads(comm, stack, grid, slices, seconds: float, mark):
    """Iterations of the three loaders, each timed from a barrier; the first
    iteration is discarded.  Rank 0 decides when the time is up."""
    times = {name: [] for name in LOADERS}
    walls = []
    bad = 0
    started = None
    iteration = 0
    while True:
        if iteration == 1:
            comm.Barrier()
            if comm.rank == 0:
                mark()
            started = time.perf_counter()
        comm.Barrier()
        entered = time.perf_counter()
        for name, loader in LOADERS.items():
            comm.Barrier()
            begun = time.perf_counter()
            block = loader(comm, stack, grid)
            elapsed = time.perf_counter() - begun
            if iteration:
                times[name].append(elapsed)
            if not oracles.brick_matches(block.data, block.box, slices):
                bad += 1
        if iteration:
            walls.append(time.perf_counter() - entered)
        iteration += 1
        done = (
            iteration > 1 and time.perf_counter() - started >= seconds
            if comm.rank == 0 else None
        )
        if comm.bcast(done, root=0):
            break
    return {"times": times, "walls": walls, "bad": bad}


def _launch(stack, grid, slices, seconds, mark) -> dict:
    """One launch; every iteration is a segment of one load per loader."""
    ranks = run_spmd(RANKS, _loads, stack, grid, slices, seconds, mark)
    walls = slowest_rank([r["walls"] for r in ranks])
    return {
        "roundrobin_ms": [
            t * 1e3 for t in slowest_rank([r["times"]["roundrobin"] for r in ranks])
        ],
        "rate": [len(LOADERS) / wall for wall in walls],
        # a load fails when any rank's brick differs from the phantom
        "bad": max(r["bad"] for r in ranks),
    }


def run(ctx: Context) -> dict:
    slices = phantom_slices(ctx.seed)
    stack = _write(ctx, slices)
    grid = grid_shape(RANKS, DIMS)
    if ctx.trace:
        return run_traced(ctx, stack, grid, slices)
    launches = [
        _launch(stack, grid, slices, ctx.seconds / LAUNCHES, ctx.mark_first_sample)
        for _ in range(LAUNCHES)
    ]
    rates = [value for l in launches for value in l["rate"]]
    return {
        # the discarded first iteration of each launch is attempted and checked too
        "attempted": len(LOADERS) * (len(rates) + LAUNCHES),
        "failed": sum(l["bad"] for l in launches),
        "segment_latency_ms": [value for l in launches for value in l["roundrobin_ms"]],
        "segment_rate": rates,
    }


# -- the traced run ------------------------------------------------------------------


def _composed_load(comm, stack, grid, strategy, log, op):
    """The benchmark's own composition of the public calls
    ``load_stack_ddr`` makes, with a span around each."""
    rank = comm.rank
    geometry = stack_geometry(stack)
    need = grid_boxes(geometry.volume_dims, grid)[rank]
    chunks = owned_chunks(geometry, comm.size, rank, strategy)
    marks = [time.perf_counter()]
    with log.span("read", "io", rank, op):
        buffers = []
        for chunk in chunks:
            planes = []
            for z in range(chunk.offset[2], chunk.offset[2] + chunk.dims[2]):
                with log.span("TiffStack.read_slice", "imaging", rank, op):
                    planes.append(stack.read_slice(z))
            buffers.append(np.stack(planes))
    marks.append(time.perf_counter())
    with log.span("redistribute", "io", rank, op):
        red = Redistributor(comm, ndims=3, dtype=buffers[0].dtype, backend="alltoallw")
        with log.span("Redistributor.setup", "core", rank, op):
            red.setup(own=chunks, need=need)
        marks.append(time.perf_counter())
        data = np.empty(need.np_shape(), dtype=buffers[0].dtype)
        with log.span("Redistributor.exchange", "core", rank, op):
            red.exchange(buffers, data)
    marks.append(time.perf_counter())
    return need, data, [b - a for a, b in zip(marks, marks[1:])]


def _traced_loads(comm, stack, grid, slices, iterations, log, mark):
    off = SpanLog(enabled=False)
    loaders = {name: [] for name in LOADERS}
    composed = {"plain": [], "traced": [], "read": [], "setup": [], "exchange": []}
    ok = True
    for iteration in range(iterations + 1):
        if iteration == 1 and comm.rank == 0:
            mark()
        for name, loader in LOADERS.items():
            comm.Barrier()
            begun = time.perf_counter()
            block = loader(comm, stack, grid)
            if iteration:
                loaders[name].append(time.perf_counter() - begun)
            ok = ok and oracles.brick_matches(block.data, block.box, slices)
        for key, which in (("plain", off), ("traced", log)):
            comm.Barrier()
            begun = time.perf_counter()
            need, data, parts = _composed_load(
                comm, stack, grid, Assignment.ROUND_ROBIN, which, iteration)
            if iteration:
                composed[key].append(time.perf_counter() - begun)
                if key == "plain":
                    for part, value in zip(("read", "setup", "exchange"), parts):
                        composed[part].append(value)
            ok = ok and oracles.brick_matches(data, need, slices)
    return {"loaders": loaders, "composed": composed, "ok": ok}


def probe_read_slice(stack) -> dict:
    times = []
    for _ in range(2):
        for z in range(STACK.depth):
            begun = time.perf_counter()
            stack.read_slice(z)
            times.append(time.perf_counter() - begun)
    slice_bytes = STACK.width * STACK.height * STACK.dtype.itemsize
    return {
        "imaging.read_slice_ms_p50": median(times) * 1e3,
        "imaging.read_mib_s": slice_bytes / MiB / median(times),
    }


def run_traced(ctx: Context, stack, grid, slices) -> dict:
    iterations = 8
    metrics = {"mpisim.launch_ms": probe_launch_ms()}
    metrics.update(probe_read_slice(stack))
    ranks = run_spmd(
        RANKS, _traced_loads, stack, grid, slices, iterations, ctx.log, ctx.mark_first_sample
    )
    attempted = (iterations + 1) * (len(LOADERS) + 2)
    if not all(r["ok"] for r in ranks):
        return {"attempted": attempted, "failed": attempted, "metrics": {}}

    def slowest_ms(select) -> float:
        return median(slowest_rank([select(r) for r in ranks])) * 1e3

    loads = {name: slowest_ms(lambda r, n=name: r["loaders"][n]) for name in LOADERS}
    plain = slowest_ms(lambda r: r["composed"]["plain"])
    metrics.update({
        "io.load_consecutive_ms_p50": loads["consecutive"],
        "io.load_roundrobin_ms_p50": loads["roundrobin"],
        "io.noddr_load_ms_p50": loads["noddr"],
        "io.ddr_speedup_consecutive": loads["noddr"] / loads["consecutive"],
        "io.read_ms_p50": slowest_ms(lambda r: r["composed"]["read"]),
        "io.exchange_ms_p50": slowest_ms(
            lambda r: [s + e for s, e in zip(r["composed"]["setup"], r["composed"]["exchange"])]
        ),
        "core.setup_ms_p50": slowest_ms(lambda r: r["composed"]["setup"]),
        "core.first_exchange_ms": slowest_ms(lambda r: r["composed"]["exchange"]),
        "io.driver_gap": loads["roundrobin"] / plain,
        "obs.bench_trace_overhead": slowest_ms(lambda r: r["composed"]["traced"]) / plain,
    })
    shares = work_shares(ctx.log.spans)
    for layer in ("imaging", "io", "core"):
        metrics[f"{layer}.work_share"] = shares.get(layer, 0.0)
    return {"attempted": attempted, "failed": 0, "metrics": metrics}
