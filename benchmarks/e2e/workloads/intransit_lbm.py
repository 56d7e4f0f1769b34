"""``intransit_lbm``: paper use case B through the product's own driver.

``run_pipeline`` carries every frame sim -> stream -> DDR -> render ->
gather -> assemble -> encode.  The simulation does most of the work, the JPEG
encoder little (early-flow frames are flat and compress to a few KB) and the
DDR core almost none, so this workload bypasses what ``serve_edge`` stresses.
Every launch restarts the flow from rest, so each measures the same frames.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import Redistributor
from repro.intransit import (
    PipelineConfig,
    StreamReceiver,
    StreamSender,
    StreamTopology,
    run_pipeline,
)
from repro.jpeg import encode_rgb
from repro.lbm import DistributedLbm, SerialLbm
from repro.mpisim import run_spmd
from repro.viz import BLUE_WHITE_RED, assemble_tiles, render_scalar_field
from repro.volren import grid_boxes, grid_shape

import oracles
from harness import Context, SpanLog, median, op_self_totals, work_shares
from inputs import ANALYSIS_RANKS, NX, NY, OUTPUT_EVERY, SIM_RANKS, lbm_config
from workloads import probe_launch_ms

WORLD = SIM_RANKS + ANALYSIS_RANKS
FRAMES = 6  # per launch; every launch is a segment
ORACLE_FRAMES = 2
TRACED_TURNS = 2  # of product, composed and traced-composed launches in the traced run


def _config(seed: int, frames: int, **extra) -> PipelineConfig:
    return PipelineConfig(
        lbm=lbm_config(seed), m=SIM_RANKS, n=ANALYSIS_RANKS,
        steps=frames * OUTPUT_EVERY, output_every=OUTPUT_EVERY, **extra,
    )


def _root(results):
    return next(r for r in results if r.role == "analysis_root")


def _product_launch(config: PipelineConfig) -> tuple[float, object]:
    begun = time.perf_counter()
    results = run_spmd(WORLD, run_pipeline, config)
    return time.perf_counter() - begun, _root(results)


def check_against_serial(seed: int) -> bool:
    """A short ``keep_frames`` run equals SerialLbm + render_scalar_field."""
    config = _config(seed, ORACLE_FRAMES, keep_frames=True)
    _, root = _product_launch(config)
    expected = oracles.serial_frames(
        config.lbm, OUTPUT_EVERY, config.vorticity_limit, ORACLE_FRAMES)
    return root.frames == ORACLE_FRAMES and oracles.frames_match(root.frames_rendered, expected)


def run(ctx: Context) -> dict:
    verified = check_against_serial(ctx.seed)
    if ctx.trace:
        return run_traced(ctx, verified)
    config = _config(ctx.seed, FRAMES)
    walls, roots = [], []
    ctx.mark_first_sample()
    begun = time.perf_counter()
    while not walls or time.perf_counter() - begun < ctx.seconds - median(walls) / 2:
        wall, root = _product_launch(config)
        walls.append(wall)
        roots.append(root)
    attempted = FRAMES * len(walls) + ORACLE_FRAMES
    # the same seed must give the same bytes on every launch
    repeatable = len({r.jpeg_bytes for r in roots}) == 1
    failed = sum(FRAMES - r.frames for r in roots)
    if not (verified and repeatable):
        failed = attempted
    return {
        "attempted": attempted,
        "failed": failed,
        "segment_latency_ms": [wall / FRAMES * 1e3 for wall in walls],
        "segment_rate": [FRAMES / wall for wall in walls],
    }


# -- the traced run: the benchmark drives the layers itself --------------------------


def _compose(world, config: PipelineConfig, frames: int, log: SpanLog):
    """The same public calls ``run_pipeline`` composes, with a span and a
    clock reading around each."""
    topology = StreamTopology(config.m, config.n, config.lbm.nx, config.lbm.ny)
    is_sim = topology.is_sim(world.rank)
    sub = world.Split(0 if is_sim else 1, key=world.rank)
    rank = world.rank
    clock = time.perf_counter
    times: dict[str, list[float]] = {}

    def timed(name, layer, op, call, wait=False):
        begun = clock()
        with log.span(name, layer, rank, op, wait=wait):
            value = call()
        times.setdefault(name, []).append(clock() - begun)
        return value

    if is_sim:
        sim = DistributedLbm(sub, config.lbm)
        sender = StreamSender(world, topology, sub.rank)
        for frame in range(frames):
            timed("DistributedLbm.step", "lbm", frame, lambda: sim.step(config.output_every))
            field = timed("DistributedLbm.vorticity", "lbm", frame,
                          lambda: sim.vorticity().astype(np.float32))
            timed("StreamSender.send_frame", "intransit", frame,
                  lambda: sender.send_frame(frame, field))
        return {"role": "sim", "times": times}

    nx, ny = config.lbm.nx, config.lbm.ny
    receiver = StreamReceiver(world, topology, sub.rank)
    need = grid_boxes((nx, ny), grid_shape(config.n, (nx, ny)))[sub.rank]
    red = Redistributor(sub, ndims=2, dtype=np.float32)
    red.setup(own=receiver.owned_chunks, need=need)
    tile = np.empty(need.np_shape(), dtype=np.float32)
    origin = (need.offset[1], need.offset[0])
    limit = config.vorticity_limit
    jpeg_bytes = 0
    walls = []
    for frame in range(frames):
        begun = clock()
        slabs = timed("StreamReceiver.recv_frame", "intransit", frame,
                      lambda: receiver.recv_frame(frame), wait=True)
        received = clock()
        timed("Redistributor.exchange", "core", frame, lambda: red.exchange(slabs, tile))
        rgb = timed("render_scalar_field", "viz", frame,
                    lambda: render_scalar_field(tile, BLUE_WHITE_RED, -limit, limit, symmetric=True))
        gathered = timed("comm.gather", "mpisim", frame,
                         lambda: sub.gather((origin, rgb), root=0))
        if sub.rank == 0:
            full = timed("assemble_tiles", "viz", frame,
                         lambda: assemble_tiles(gathered, (ny, nx)))
            blob = timed("encode_rgb", "jpeg", frame,
                         lambda: encode_rgb(full, quality=config.quality))
            jpeg_bytes += len(blob)
        ended = clock()
        times.setdefault("frame", []).append(ended - received)
        walls.append(ended - begun)
    role = "analysis_root" if sub.rank == 0 else "analysis"
    return {"role": role, "rank": rank, "times": times, "walls": walls,
            "jpeg_bytes": jpeg_bytes, "tile_pixels": tile.size}


def _composed_launch(config, frames, log):
    begun = time.perf_counter()
    ranks = run_spmd(WORLD, _compose, config, frames, log)
    return time.perf_counter() - begun, ranks


def run_traced(ctx: Context, verified: bool) -> dict:
    config = _config(ctx.seed, FRAMES)
    attempted = 3 * TRACED_TURNS * FRAMES + ORACLE_FRAMES
    metrics = {"mpisim.launch_ms": probe_launch_ms()}
    ctx.mark_first_sample()
    # The product driver, the bare composition and the traced composition take
    # turns, so host drift slower than a launch cancels out of their ratios.
    walls = {"product": [], "plain": [], "traced": []}
    for _ in range(TRACED_TURNS):
        wall, product = _product_launch(config)
        walls["product"].append(wall)
        walls["plain"].append(_composed_launch(config, FRAMES, SpanLog(enabled=False))[0])
        ctx.log.spans.clear()  # keep the last turn's spans
        wall, ranks = _composed_launch(config, FRAMES, ctx.log)
        walls["traced"].append(wall)
    product_wall, plain_wall, traced_wall = (median(walls[k]) for k in walls)

    root = next(r for r in ranks if r["role"] == "analysis_root")
    sims = [r for r in ranks if r["role"] == "sim"]
    # (a) the benchmark's composition produces the product driver's bytes
    same_bytes = root["jpeg_bytes"] == product.jpeg_bytes and product.frames == FRAMES
    # (b) the spans on the analysis root account for its per-frame wall
    root_spans = [s for s in ctx.log.spans if s.rank == root["rank"]]
    reconstruction = median([
        layer_sum / root["walls"][frame]
        for frame, layer_sum in op_self_totals(root_spans).items()
    ])
    if not (verified and same_bytes and abs(reconstruction - 1.0) <= 0.10):
        return {"attempted": attempted, "failed": attempted, "metrics": {},
                "notes": {"same_bytes": same_bytes, "reconstruction": reconstruction}}

    def sim_ms(name):  # slowest simulation rank, median over frames
        return median([max(col) for col in zip(*(r["times"][name] for r in sims))]) * 1e3

    def root_ms(name):
        return median(root["times"][name]) * 1e3

    serial = SerialLbm(config.lbm)
    serial_times = []
    for _ in range(3):
        begun = time.perf_counter()
        serial.step(OUTPUT_EVERY)
        serial_times.append(time.perf_counter() - begun)

    step_ms = sim_ms("DistributedLbm.step")
    frames = root["times"]["frame"]
    metrics.update({
        "lbm.step_ms_p50": step_ms,
        "lbm.mlups": NX * NY * OUTPUT_EVERY / (step_ms * 1e-3) / 1e6,
        "lbm.fields_ms_p50": sim_ms("DistributedLbm.vorticity"),
        "lbm.serial_step_ms_p50": median(serial_times) * 1e3,
        "intransit.send_ms_p50": sim_ms("StreamSender.send_frame"),
        "intransit.recv_wait_ms_p50": root_ms("StreamReceiver.recv_frame"),
        "intransit.frame_ms_p50": median(frames) * 1e3,
        "intransit.frame_ms_max": max(frames) * 1e3,
        "intransit.driver_gap": product_wall / plain_wall,
        "core.exchange_ms_p50": root_ms("Redistributor.exchange"),
        "mpisim.gather_ms_p50": root_ms("comm.gather"),
        "viz.render_ms_p50": root_ms("render_scalar_field"),
        "viz.render_mpix_s": root["tile_pixels"] / 1e6 / median(root["times"]["render_scalar_field"]),
        "viz.assemble_ms_p50": root_ms("assemble_tiles"),
        "jpeg.encode_ms_p50": root_ms("encode_rgb"),
        "jpeg.encode_mpix_s": NX * NY / 1e6 / median(root["times"]["encode_rgb"]),
        "jpeg.bytes_per_frame": product.jpeg_bytes / FRAMES,
        "jpeg.reduction": product.data_reduction,
        "trace.layer_sum_over_wall": reconstruction,
        "obs.bench_trace_overhead": traced_wall / plain_wall,
    })
    shares = work_shares(ctx.log.spans)
    for layer in ("lbm", "intransit", "core", "viz", "mpisim", "jpeg"):
        metrics[f"{layer}.work_share"] = shares.get(layer, 0.0)
    return {"attempted": attempted, "failed": 0, "metrics": metrics}
