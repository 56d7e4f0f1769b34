"""``redist_bulk`` and ``redist_rounds``: the DDR exchange itself.

The same ``core``/``mpisim`` code used two ways.  ``redist_bulk`` moves
32 MiB in one round of 16 large lanes, so copy bandwidth does nearly all the
work; ``redist_rounds`` moves 8 MiB in 32 rounds of 512 small messages, so
per-message overhead (engine dispatch, mailboxes, condition variables,
interpreter-lock hand-offs) does.  A gain for big lanes that costs small ones,
or the reverse, shows on one of the two.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core import Redistributor
from repro.mpisim import FLOAT, SubarrayType, run_spmd
from repro.obs import TRACER, tracing
from repro.utils import GiB, counting_transfers

import oracles
from harness import Context, median, percentile, slowest_rank, spawn_child
from inputs import BULK, RANKS, ROUNDS, RedistCase, crop, global_array
from workloads import probe_launch_ms

#: Measured run_spmd launches per child process.  Mapping set-up for 32
#: rounds costs 0.4 s a launch, so the rounds case takes fewer, longer ones.
LAUNCHES = {BULK.name: 4, ROUNDS.name: 2}
WARMUPS = {BULK.name: 5, ROUNDS.name: 3}
#: For most of its first second a fresh process keeps its rank threads on one
#: core: small messages then run several times faster (no cross-core
#: hand-offs) and big copies half as fast (no parallelism).  Every child
#: first runs one launch this long and discards it.
SETTLE_S = 1.0
#: Exchanges per segment, about a quarter of a second: each segment reports
#: its median latency and its back-to-back rate.
SEGMENT = {BULK.name: 64, ROUNDS.name: 6}

BACKENDS = ("alltoallw", "p2p", "auto", "bounded")
TRANSPORTS = ("packed", "zerocopy", "shm")


# -- per-rank pieces ---------------------------------------------------------------


def _prepare(comm, case: RedistCase, data: np.ndarray, **red_kwargs):
    """Copy this rank's chunks out of the global array and set the mapping up."""
    own = case.own(comm.rank)
    need = case.need(comm.rank)
    bufs = [np.ascontiguousarray(crop(data, box)) for box in own]
    out = np.empty(need.np_shape(), dtype=np.float32)
    red = Redistributor(comm, ndims=3, dtype=np.float32, **red_kwargs)
    red.setup(own=own, need=need)
    return red, bufs, out


def _verified_exchange(comm, case, data, red, bufs, out) -> bool:
    """One more exchange into a wiped buffer, checked against the oracle."""
    out.fill(-1.0)
    red.exchange(bufs, out)
    return oracles.need_buffer_matches(out, data, case.need(comm.rank))


def _iterations(comm, red, bufs, out, seconds: float, segment: int) -> int:
    """How many exchanges fit in ``seconds`` — whole segments, at least one —
    decided once on rank 0 so every rank runs the same count."""
    comm.Barrier()
    started = time.perf_counter()
    red.exchange(bufs, out)
    red.exchange(bufs, out)
    comm.Barrier()
    each = (time.perf_counter() - started) / 2
    count = max(1, round(seconds / each / segment)) * segment if comm.rank == 0 else None
    return comm.bcast(count, root=0)


def _aligned(comm, red, bufs, out, count: int, log=None) -> list[float]:
    """``count`` exchanges, each started from a barrier; seconds per exchange."""
    times = []
    for op in range(count):
        comm.Barrier()
        started = time.perf_counter()
        if log is None:
            red.exchange(bufs, out)
        else:
            with log.span("Redistributor.exchange", "core", comm.rank, op):
                red.exchange(bufs, out)
        times.append(time.perf_counter() - started)
    return times


def _measure(comm, case: RedistCase, data, phase_seconds: float, mark):
    """One launch: barrier-aligned phase, then back-to-back phase."""
    red, bufs, out = _prepare(comm, case, data)
    for _ in range(WARMUPS[case.name]):
        red.exchange(bufs, out)
    segment = SEGMENT[case.name]
    count = _iterations(comm, red, bufs, out, phase_seconds, segment)
    if comm.rank == 0:
        mark()
    aligned = _aligned(comm, red, bufs, out, count)
    ok = _verified_exchange(comm, case, data, red, bufs, out)
    comm.Barrier()
    stamps = [time.perf_counter()]
    for done in range(1, count + 1):
        red.exchange(bufs, out)
        if done % segment == 0:
            stamps.append(time.perf_counter())
    ok = _verified_exchange(comm, case, data, red, bufs, out) and ok
    return {"aligned": aligned, "stamps": stamps, "ok": ok}


def _launch(case, data, phase_seconds, mark=lambda: None) -> dict:
    """One launch, cut into segments: each segment's median latency (slowest
    rank per exchange) and back-to-back rate (slowest rank per segment)."""
    ranks = run_spmd(RANKS, _measure, case, data, phase_seconds, mark)
    segment = SEGMENT[case.name]
    aligned = slowest_rank([r["aligned"] for r in ranks])
    walls = slowest_rank([[b - a for a, b in zip(r["stamps"], r["stamps"][1:])] for r in ranks])
    return {
        "latency_ms": [
            median(aligned[lo:lo + segment]) * 1e3 for lo in range(0, len(aligned), segment)
        ],
        "rate": [segment / wall for wall in walls],
        # the timed exchanges plus the two verified ones
        "exchanges": 2 * len(aligned) + 2,
        "ok": all(r["ok"] for r in ranks),
    }


# -- the untraced run ----------------------------------------------------------------


def run(ctx: Context, case: RedistCase) -> dict:
    data = global_array(ctx.seed, case)
    if ctx.trace:
        return run_traced(ctx, case, data)
    phase = ctx.seconds / LAUNCHES[case.name] / 2
    _launch(case, data, SETTLE_S / 2)  # discarded
    launches = [
        _launch(case, data, phase, ctx.mark_first_sample) for _ in range(LAUNCHES[case.name])
    ]
    attempted = sum(l["exchanges"] for l in launches)
    failed = sum(l["exchanges"] for l in launches if not l["ok"])
    return {
        "attempted": attempted,
        "failed": failed,
        "segment_latency_ms": [value for l in launches for value in l["latency_ms"]],
        "segment_rate": [value for l in launches for value in l["rate"]],
    }


# -- the traced run: probes from outside each layer ----------------------------------


def _pingpong(comm, trips: int) -> list[float]:
    buf = np.zeros(1, dtype=np.float64)  # 8 bytes
    times = []
    comm.Barrier()
    for _ in range(trips):
        started = time.perf_counter()
        if comm.rank == 0:
            comm.Send(buf, 1)
            comm.Recv(buf, 1)
        else:
            comm.Recv(buf, 0)
            comm.Send(buf, 0)
        times.append(time.perf_counter() - started)
    return times


def _barriers(comm, count: int) -> list[float]:
    times = []
    comm.Barrier()
    for _ in range(count):
        started = time.perf_counter()
        comm.Barrier()
        times.append(time.perf_counter() - started)
    return times


def probe_messaging() -> dict:
    trips = run_spmd(2, _pingpong, 1500)[0]
    barriers = slowest_rank(run_spmd(RANKS, _barriers, 1500))
    return {
        "mpisim.pingpong_us_p50": median(trips) * 1e6,
        "mpisim.barrier_us_p50": median(barriers) * 1e6,
    }


def _lane_types(case: RedistCase, src: int, dst: int):
    """Send and receive subarray types of the ``src -> dst`` lane of a
    one-chunk-per-rank case, or ``(None, None)`` when nothing moves."""
    own = case.own(src)[0]
    need = case.need(dst)
    lane = own.intersect(need)
    if lane is None:
        return None, None
    send = SubarrayType(FLOAT, own.np_shape(), lane.np_shape(), lane.np_starts_within(own))
    recv = SubarrayType(FLOAT, need.np_shape(), lane.np_shape(), lane.np_starts_within(need))
    return send, recv


def probe_copies(data: np.ndarray, repeats: int = 30) -> dict:
    """Pack, unpack and plain copy of one bulk lane on a single thread:
    the same bytes, so the ratios are the datatype layer's overhead."""
    send, recv = _lane_types(BULK, 0, 0)
    own = np.ascontiguousarray(crop(data, BULK.own(0)[0]))
    out = np.empty(BULK.need(0).np_shape(), dtype=np.float32)
    packed = send.pack(own)
    plain = np.empty_like(packed)
    timings = {"pack": [], "unpack": [], "memcpy": []}
    for _ in range(repeats):
        started = time.perf_counter()
        send.pack(own, out=packed)
        timings["pack"].append(time.perf_counter() - started)
        started = time.perf_counter()
        recv.unpack(out, packed)
        timings["unpack"].append(time.perf_counter() - started)
        started = time.perf_counter()
        np.copyto(plain, packed)
        timings["memcpy"].append(time.perf_counter() - started)
    if not np.array_equal(recv.view(out), send.view(own)):
        raise oracles.OracleError("pack/unpack of one lane did not round-trip")
    return {
        f"mpisim.{kind}_gib_s": packed.nbytes / GiB / median(times)
        for kind, times in timings.items()
    }


def _alltoallw_types(comm, case: RedistCase):
    sendtypes = [_lane_types(case, comm.rank, dst)[0] for dst in range(comm.size)]
    recvtypes = [_lane_types(case, src, comm.rank)[1] for src in range(comm.size)]
    return sendtypes, recvtypes


def _aligned_alltoallw(comm, own, out, types, count: int) -> list[float]:
    """The bare collective over subarray types built here from box
    intersections: the floor under ``Redistributor.exchange``."""
    times = []
    for _ in range(count):
        comm.Barrier()
        started = time.perf_counter()
        comm.Alltoallw(own, types[0], out, types[1])
        times.append(time.perf_counter() - started)
    return times


def _aligned_product_traced(comm, red, bufs, out, count: int):
    """Exchanges inside the program's own ``tracing()``, which is process
    wide: rank 0 switches it, everyone else waits at the barriers."""
    comm.Barrier()  # nobody is still inside an untraced exchange
    if comm.rank != 0:
        times = _aligned(comm, red, bufs, out, count)
        comm.Barrier()
        return times, 0
    with tracing():
        times = _aligned(comm, red, bufs, out, count)
        comm.Barrier()
        spans = len(TRACER.records())
    TRACER.clear()
    return times, spans


def _lane_count(case: RedistCase) -> int:
    return sum(
        1
        for src in range(RANKS)
        for chunk in case.own(src)
        for dst in range(RANKS)
        if chunk.intersect(case.need(dst)) is not None
    )


#: Exchanges per block of the traced launch.  The variants take turns block
#: by block, so host drift slower than a block cancels out of their ratios.
BLOCKS = 20
BLOCK_SIZES = {
    BULK.name: {"plain": 5, "traced": 5, "alltoallw": 5},
    ROUNDS.name: {"plain": 5, "traced": 2, "product": 2},
}


def _traced_launch(comm, case, data, log, mark):
    """Set-up, cold exchange, then blocks of steady exchanges taking turns:
    plain, inside a benchmark span, (bulk) the bare collective, (rounds)
    inside the program's own tracing.  Last, exact copy counts."""
    red, bufs, out = _prepare(comm, case, data)
    setups = []
    for op in range(5):
        comm.Barrier()
        started = time.perf_counter()
        with log.span("Redistributor.setup", "core", comm.rank, op):
            red.setup(own=case.own(comm.rank), need=case.need(comm.rank))
        setups.append(time.perf_counter() - started)
    comm.Barrier()
    started = time.perf_counter()
    red.exchange(bufs, out)
    first = time.perf_counter() - started
    for _ in range(WARMUPS[case.name]):
        red.exchange(bufs, out)
    if comm.rank == 0:
        mark()

    sizes = BLOCK_SIZES[case.name]
    times = {variant: [] for variant in sizes}
    product_spans = 0
    types = _alltoallw_types(comm, case) if "alltoallw" in sizes else None
    for _ in range(BLOCKS):
        times["plain"] += _aligned(comm, red, bufs, out, sizes["plain"])
        times["traced"] += _aligned(comm, red, bufs, out, sizes["traced"], log)
        if types:
            times["alltoallw"] += _aligned_alltoallw(comm, bufs[0], out, types, sizes["alltoallw"])
        else:
            block, spans = _aligned_product_traced(comm, red, bufs, out, sizes["product"])
            times["product"] += block
            product_spans += spans
    ok = _verified_exchange(comm, case, data, red, bufs, out)
    if types:
        out.fill(-1.0)
        _aligned_alltoallw(comm, bufs[0], out, types, 1)
        ok = ok and oracles.need_buffer_matches(out, data, case.need(comm.rank))

    def steady_exchanges(count=10):
        comm.Barrier()
        for _ in range(count):
            red.exchange(bufs, out)
        comm.Barrier()
        return count

    comm.Barrier()  # every rank has left the last collective: the counts start clean
    counted = None
    if comm.rank == 0:
        with counting_transfers() as counters:
            steady = steady_exchanges()
            counted = counters.snapshot()
    else:
        steady = steady_exchanges()
    return {
        "setups": setups, "first": first, "times": times, "ok": ok, "counted": counted,
        "steady": steady, "rounds": red.nrounds, "product_spans": product_spans,
    }


def _variant(comm, case, data, count: int, red_kwargs: dict) -> list[float]:
    red, bufs, out = _prepare(comm, case, data, **red_kwargs)
    for _ in range(2):
        red.exchange(bufs, out)
    times = _aligned(comm, red, bufs, out, count)
    if not _verified_exchange(comm, case, data, red, bufs, out):
        raise oracles.OracleError(f"{case.name} {red_kwargs} result differs from the global array")
    return times


def _variant_ms(case, data, count: int, executor=None, **red_kwargs) -> float:
    ranks = run_spmd(RANKS, _variant, case, data, count, red_kwargs, executor=executor)
    return median(slowest_rank(ranks)) * 1e3


def probe_matrix(case, data, count: int) -> dict:
    """One launch per backend, transport and executor: never gated, the
    evidence for calibrating or deleting variants."""
    out = {}
    for backend in BACKENDS:
        out[f"core.backend.{backend}_ms_p50"] = _variant_ms(case, data, count, backend=backend)
    fixed = min(out[f"core.backend.{b}_ms_p50"] for b in BACKENDS if b != "auto")
    out["core.auto_regret"] = out["core.backend.auto_ms_p50"] / fixed
    for transport in TRANSPORTS:
        out[f"core.transport.{transport}_ms_p50"] = _variant_ms(
            case, data, count, transport=transport
        )
    out["mpisim.executor.process_ms_p50"] = _variant_ms(case, data, count, executor="process")
    return out


def _one_core_ms(ctx: Context) -> float | None:
    """``redist_rounds`` again in a child pinned to one CPU, where the rank
    threads cannot convoy on the interpreter lock across cores."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    result = spawn_child(ROUNDS.name, ctx.seed, 1.5, 0, ctx.workdir, timeout=60, pin=True)
    if result["failed"]:
        raise oracles.OracleError("one-core redist_rounds child failed its oracle")
    return median(result["segment_latency_ms"])


def run_traced(ctx: Context, case: RedistCase, data: np.ndarray) -> dict:
    _launch(case, data, SETTLE_S / 2)  # discarded, as in the untraced run
    metrics: dict[str, float] = {"mpisim.launch_ms": probe_launch_ms()}
    metrics.update(probe_messaging())
    if not case.round_robin:
        metrics.update(probe_copies(data))
    ranks = run_spmd(RANKS, _traced_launch, case, data, ctx.log, ctx.mark_first_sample)
    attempted = BLOCKS * sum(BLOCK_SIZES[case.name].values()) + 2
    if not all(r["ok"] for r in ranks):
        return {"attempted": attempted, "failed": attempted, "metrics": {}}

    def slowest(variant) -> list[float]:
        return slowest_rank([r["times"][variant] for r in ranks])

    plain = slowest("plain")  # 100 samples: ten beyond the p90
    skew = [max(col) - min(col) for col in zip(*(r["times"]["plain"] for r in ranks))]
    counted, steady = ranks[0]["counted"], ranks[0]["steady"]
    copied = sum(counted["bytes_copied"].values()) / steady
    p50 = median(plain)
    metrics.update({
        "core.setup_ms_p50": median(slowest_rank([r["setups"] for r in ranks])) * 1e3,
        "core.first_exchange_ms": max(r["first"] for r in ranks) * 1e3,
        "core.exchange_ms_p50": p50 * 1e3,
        "core.exchange_ms_p90": percentile(plain, 90) * 1e3,
        "core.exchange_skew_ms_p50": median(skew) * 1e3,
        "core.exchange_gib_s": case.nbytes / GiB / p50,
        "core.rounds": ranks[0]["rounds"],
        "core.lanes_per_exchange": _lane_count(case),
        "core.bytes_per_exchange": case.nbytes,
        "core.copies_per_exchange": sum(counted["copies"].values()) / steady,
        "core.bytes_copied_per_exchange": copied,
        "core.allocs_per_exchange": counted["allocations"] / steady,
        "core.copy_amplification": copied / case.nbytes,
        "obs.bench_trace_overhead": median(slowest("traced")) / p50,
    })

    if case.round_robin:
        product_count = BLOCKS * BLOCK_SIZES[case.name]["product"]
        metrics["obs.tracing_on_ratio"] = median(slowest("product")) / p50
        metrics["obs.spans_per_exchange"] = ranks[0]["product_spans"] / product_count
        regime = [median(_launch(case, data, 0.15)["latency_ms"]) for _ in range(4)] + [p50 * 1e3]
        metrics["mpisim.fast_regime_share"] = (
            sum(1 for value in regime if value < median(regime) / 2) / len(regime)
        )
        pinned = _one_core_ms(ctx)
        if pinned is not None:
            metrics["mpisim.onecore_exchange_ms_p50"] = pinned
            metrics["mpisim.convoy_ratio"] = p50 * 1e3 / pinned
    else:
        raw = median(slowest("alltoallw"))
        metrics["mpisim.alltoallw_ms_p50"] = raw * 1e3
        metrics["core.engine_self_ms"] = (p50 - raw) * 1e3
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        metrics["core.bw_over_memcpy"] = metrics["core.exchange_gib_s"] / (
            metrics["mpisim.memcpy_gib_s"] * min(RANKS, cores)
        )

    metrics.update(probe_matrix(case, data, 30 if not case.round_robin else 10))
    return {"attempted": attempted, "failed": 0, "metrics": metrics}
