"""``serve_edge``: synthetic frames -> FrameHub -> StreamEdge -> sockets.

The JPEG encoder does nearly all the work on content-rich frames, the
simulation none, and the DDR core is used a third way: a single-rank world
with many cached mappings.  Fifty viewers over three layouts: one ``/ws`` and
one ``/mjpeg`` client on real loopback sockets, written here, stamping the
clock when a complete frame has arrived, and 48 in-process queues nobody pops.

The loop is **closed**: one producer thread calls ``hub.publish`` back to
back, because the producer is a simulation that blocks in ``publish`` — a
slower hub is offered less load, and that is the system as deployed.  The
socket clients are threads of this process, so a receipt can be stamped up to
one interpreter switch interval (5 ms) late.
"""

from __future__ import annotations

import base64
import os
import socket
import struct
import threading
import time

from repro.serve import ConsumerLayout, FrameHub, StreamEdge, SyntheticSource
from repro.serve.ws import OP_BINARY, OP_CLOSE, decode_frame, encode_frame
from repro.jpeg import encode_rgb
from repro.viz import BLUE_WHITE_RED, render_scalar_field

import oracles
from harness import Context, SpanLog, median, op_self_totals, percentile, work_shares
from inputs import NX, NY, SERVE_M, ServeInputs, serve_inputs

QUEUE_VIEWERS = 48  # in-process, never popped, spread over the three layouts
WARMUP_FRAMES = 2  # the first publish builds every layout's mappings
BLOCK = 4  # publishes per segment of the publish loop
FINAL_WAIT_S = 10.0


# -- socket clients ------------------------------------------------------------------


class SocketViewer(threading.Thread):
    """One real-socket client: records ``(index, receipt time)`` of every
    complete frame and keeps the last frame's bytes for the oracle."""

    def __init__(self, port: int, path: str, query: str) -> None:
        super().__init__(daemon=True, name=f"viewer{path}")
        self.path = path
        self.error: Exception | None = None
        self.frames: list[tuple[int, float]] = []
        self.last_jpeg = b""
        self.connected = threading.Event()
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
        self._request = (
            f"GET {path}?{query} HTTP/1.1\r\nHost: localhost\r\n"
            + ("Upgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Version: 13\r\n"
               f"Sec-WebSocket-Key: {base64.b64encode(os.urandom(16)).decode()}\r\n"
               if path == "/ws" else "Connection: keep-alive\r\n")
            + "\r\n"
        ).encode()

    def run(self) -> None:
        try:
            self._sock.sendall(self._request)
            buffer = b""
            while b"\r\n\r\n" not in buffer:
                buffer += self._read()
            head, _, buffer = buffer.partition(b"\r\n\r\n")
            status = head.split(b"\r\n")[0]
            if (b" 101 " if self.path == "/ws" else b" 200 ") not in status:
                raise ConnectionError(f"refused: {status!r}")
            self.connected.set()
            if self.path == "/ws":
                self._websocket(buffer)
            else:
                boundary = head.decode("latin-1").split("boundary=")[1].split("\r\n")[0]
                self._multipart(buffer, f"--{boundary}\r\n".encode())
        except (EOFError, OSError) as exc:
            if not self.connected.is_set():
                self.error = exc
        finally:
            self.connected.set()

    def _read(self) -> bytes:
        chunk = self._sock.recv(1 << 16)
        if not chunk:
            raise EOFError("server closed the stream")
        return chunk

    def _got(self, index: int, jpeg: bytes) -> None:
        self.frames.append((index, time.perf_counter()))
        self.last_jpeg = jpeg

    def _websocket(self, buffer: bytes) -> None:
        while True:
            parsed = decode_frame(buffer)
            if parsed is None:
                buffer += self._read()
                continue
            opcode, payload, consumed = parsed
            buffer = buffer[consumed:]
            if opcode == OP_CLOSE:
                return
            if opcode == OP_BINARY:
                self._got(struct.unpack_from(">I", payload)[0], payload[4:])

    def _multipart(self, buffer: bytes, marker: bytes) -> None:
        while True:
            while marker not in buffer or b"\r\n\r\n" not in buffer.split(marker, 1)[1]:
                buffer += self._read()
            head, _, rest = buffer.split(marker, 1)[1].partition(b"\r\n\r\n")
            fields = dict(
                line.split(": ", 1) for line in head.decode("latin-1").split("\r\n") if ": " in line
            )
            length = int(fields["Content-Length"])
            while len(rest) < length:
                rest += self._read()
            self._got(int(fields["X-Frame-Index"]), rest[:length])
            buffer = rest[length:]

    def close(self) -> None:
        try:
            if self.path == "/ws":
                self._sock.sendall(encode_frame(b"", OP_CLOSE, mask=True))
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self.join(timeout=10.0)


# -- the served system ---------------------------------------------------------------


class Served:
    """Source, hub, edge and viewers of one launch."""

    def __init__(self, nx: int, ny: int, m: int, viewers: list[tuple[str, str]],
                 queue_layouts=()) -> None:
        self.source = SyntheticSource(nx, ny, m=m)
        self.hub = FrameHub(nx, ny, m=m)
        self.edge = StreamEdge(self.hub)
        self.edge.serve_in_thread()
        self.queues = [self.hub.register(layout) for layout in queue_layouts]
        self.viewers = [SocketViewer(self.edge.port, path, query) for path, query in viewers]
        for viewer in self.viewers:
            viewer.start()
        for viewer in self.viewers:
            if not viewer.connected.wait(timeout=30.0) or viewer.error:
                raise ConnectionError(f"viewer {viewer.path} could not connect: {viewer.error}")
        deadline = time.monotonic() + 30.0
        expected = len(self.queues) + len(self.viewers)
        while self.hub.viewer_count() < expected:
            if time.monotonic() > deadline:
                raise TimeoutError("socket viewers never registered with the hub")
            time.sleep(0.001)
        self.published: dict[int, float] = {}

    def publish(self, index: int, phase: int):
        slabs = self.source.slabs(phase + index)
        self.published[index] = time.perf_counter()
        self.hub.publish(index, slabs)
        return slabs

    def wait_for(self, index: int) -> bool:
        """Until every socket viewer has read frame ``index`` completely."""
        deadline = time.monotonic() + FINAL_WAIT_S
        while time.monotonic() < deadline:
            if all(v.frames and v.frames[-1][0] >= index for v in self.viewers):
                return True
            time.sleep(0.0005)
        return False

    def deliveries(self, viewer: SocketViewer, first: int = 0) -> list[float]:
        return [at - self.published[i] for i, at in viewer.frames if i >= first]

    def close(self) -> None:
        for viewer in self.viewers:
            viewer.close()
        self.edge.shutdown()
        self.hub.close()


def _start(inputs: ServeInputs) -> Served:
    spread = [inputs.layouts[i % len(inputs.layouts)] for i in range(QUEUE_VIEWERS)]
    return Served(NX, NY, SERVE_M, [("/ws", inputs.queries[0]), ("/mjpeg", inputs.queries[1])],
                  spread)


def _final_frames_correct(served: Served, inputs: ServeInputs, slabs) -> bool:
    return all(
        oracles.socket_frames_correct(
            viewer.last_jpeg, [i for i, _ in viewer.frames],
            served.hub.view(layout, slabs), served.hub.quality,
        )
        for viewer, layout in zip(served.viewers, inputs.layouts)
    )


def _warm(served: Served, inputs: ServeInputs) -> None:
    """The first publishes build every layout's mappings: set-up, not steady state."""
    for index in range(WARMUP_FRAMES):
        served.publish(index, inputs.phase)
    served.wait_for(WARMUP_FRAMES - 1)


def _publish_while(served: Served, inputs: ServeInputs, keep_going):
    """Back-to-back publishes while ``keep_going(published, elapsed)``; the
    clock is read after each.  Returns first and last index, the clock
    readings and the last slabs."""
    first = index = WARMUP_FRAMES
    begun = time.perf_counter()
    stamps = [begun]
    slabs = None
    while keep_going(index - first, stamps[-1] - begun):
        slabs = served.publish(index, inputs.phase)
        stamps.append(time.perf_counter())
        index += 1
    return first, index - 1, stamps, slabs


def run(ctx: Context) -> dict:
    inputs = serve_inputs(ctx.seed)
    if ctx.trace:
        return run_traced(ctx, inputs)
    served = _start(inputs)
    try:
        _warm(served, inputs)
        ctx.mark_first_sample()
        # whole blocks, for ctx.seconds
        first, last, stamps, slabs = _publish_while(
            served, inputs, lambda n, elapsed: elapsed < ctx.seconds or n % BLOCK)
        arrived = served.wait_for(last)
        correct = arrived and _final_frames_correct(served, inputs, slabs)
    finally:
        served.close()
    published = last - first + 1
    received = [(i, at) for v in served.viewers for i, at in v.frames if i >= first]
    latencies, rates = [], []
    for lo in range(first, last + 1, BLOCK):
        block = [at - served.published[i] for i, at in received if lo <= i < lo + BLOCK]
        if block:  # a block no socket saw is counted as failed below
            latencies.append(median(block) * 1e3)
        rates.append(BLOCK / (stamps[lo - first + BLOCK] - stamps[lo - first]))
    attempted = published * len(served.viewers)
    return {
        "attempted": attempted,
        "failed": attempted - len(received) if correct else attempted,
        "segment_latency_ms": latencies,
        "segment_rate": rates,
    }


# -- the traced run ------------------------------------------------------------------


def _compose_beside_publish(served: Served, inputs: ServeInputs, frames: int, log, first: int):
    """A timed ``hub.publish`` and, beside it, the benchmark's own
    ``hub.view`` -> ``render_scalar_field`` -> ``encode_rgb`` per layout.
    Every other composition runs without spans, so what the spans cost shows
    as a ratio that host drift cannot move."""
    hub = served.hub
    taps = [hub.register(layout) for layout in inputs.layouts]
    off = SpanLog(enabled=False)
    clock = time.perf_counter
    out = {"publish": {}, "composed": [], "plain": [], "view": [], "render": [], "encode": [],
           "bytes": [], "same_bytes": True}
    for op in range(first, first + frames):
        traced = (op - first) % 2 == 1
        spans = log if traced else off
        slabs = served.source.slabs(inputs.phase + op)
        served.published[op] = begun = clock()
        hub.publish(op, slabs)
        published = clock()
        with spans.span("publish (composed)", "serve.hub", None, op):
            for layout, tap in zip(inputs.layouts, taps):
                t0 = clock()
                with spans.span("FrameHub.view", "serve.hub", None, op):
                    field = hub.view(layout, slabs)
                t1 = clock()
                with spans.span("render_scalar_field", "viz", None, op):
                    rgb = render_scalar_field(field, BLUE_WHITE_RED, symmetric=True)
                t2 = clock()
                with spans.span("encode_rgb", "jpeg", None, op):
                    blob = encode_rgb(rgb, quality=hub.quality)
                t3 = clock()
                out["view"].append(t1 - t0)
                if layout is inputs.layouts[0]:  # the full 600x240 frame
                    out["render"].append(t2 - t1)
                    out["encode"].append(t3 - t2)
                    out["bytes"].append(len(blob))
                frame = None
                while (newer := tap.try_pop()) is not None:
                    frame = newer
                out["same_bytes"] = (
                    out["same_bytes"] and frame is not None and frame.jpeg == blob
                )
        if traced:
            out["publish"][op] = published - begun
        out["composed" if traced else "plain"].append(clock() - published)
    for tap in taps:
        hub.unregister(tap)
    return out


def probe_layout_miss(hub: FrameHub, slabs, count: int = 8) -> float:
    """First ``hub.view`` of a layout the cache has never seen."""
    times = []
    for k in range(count):
        layout = ConsumerLayout.make(NX, NY, w=NX - 1 - k, h=NY - 1 - k)  # nearly full
        begun = time.perf_counter()
        hub.view(layout, slabs)
        times.append(time.perf_counter() - begun)
    return median(times) * 1e3


def probe_fanout() -> float:
    """Cost of one more in-process viewer on an already-served layout."""
    def publish_ms(viewers: int) -> float:
        source = SyntheticSource(64, 32, m=1)
        hub = FrameHub(64, 32, m=1)
        layout = ConsumerLayout.make(64, 32)
        for _ in range(viewers):
            hub.register(layout)
        times = []
        for index in range(23):
            slabs = source.slabs(index)
            begun = time.perf_counter()
            hub.publish(index, slabs)
            times.append(time.perf_counter() - begun)
        hub.close()
        return median(times[3:]) * 1e3

    return (publish_ms(1000) - publish_ms(1)) / 999 * 1e3


def probe_small_delivery(frames: int = 100) -> float:
    """A 64x32 frame to one /ws viewer: bare forwarding, almost no encode."""
    served = Served(64, 32, 1, [("/ws", "")])
    try:
        for index in range(frames):
            served.publish(index, 0)
            if not served.wait_for(index):
                raise oracles.OracleError("small-frame viewer missed a frame")
        return median(served.deliveries(served.viewers[0], first=5)) * 1e3
    finally:
        served.close()


def run_traced(ctx: Context, inputs: ServeInputs) -> dict:
    plain_frames, composed_frames = 50, 24
    served = _start(inputs)
    try:
        _warm(served, inputs)
        ctx.mark_first_sample()
        first, last, stamps, slabs = _publish_while(
            served, inputs, lambda n, _: n < plain_frames)
        arrived = served.wait_for(last)
        correct = arrived and _final_frames_correct(served, inputs, slabs)
        deliveries = {v.path: served.deliveries(v, first) for v in served.viewers}
        missed = sum(plain_frames - len(d) for d in deliveries.values())
        publishes = [b - a for a, b in zip(stamps, stamps[1:])]

        beside = _compose_beside_publish(served, inputs, composed_frames, ctx.log, last + 1)
        # (b) the composition's layer self times account for the publish wall:
        # per frame, then the median, which one disturbed frame cannot move
        reconstruction = median([
            layer_sum / beside["publish"][op]
            for op, layer_sum in op_self_totals(ctx.log.spans).items()
        ])
        stats = served.hub.stats()
        miss_ms = probe_layout_miss(served.hub, slabs)
    finally:
        served.close()
    attempted = (plain_frames + composed_frames) * len(served.viewers)
    # (a) beside["same_bytes"]: the composition's JPEGs are the hub's own
    if not (correct and beside["same_bytes"] and abs(reconstruction - 1.0) <= 0.10):
        return {"attempted": attempted, "failed": attempted, "metrics": {},
                "notes": {"correct": correct, "same_bytes": beside["same_bytes"],
                          "reconstruction": reconstruction}}

    full_mpix = NX * NY / 1e6
    metrics = {
        "serve.hub.publish_ms_p50": median(publishes) * 1e3,
        "serve.hub.publish_ms_max": max(publishes) * 1e3,
        "serve.hub.assemble_ms_p50": median(beside["view"]) * 1e3,
        "serve.hub.layout_miss_ms_p50": miss_ms,
        "serve.hub.fanout_us_per_viewer": probe_fanout(),
        "serve.hub.frames_coalesced": stats["counters"].get("serve.frames_coalesced", 0),
        "serve.hub.pool_peak_bytes": stats["mapping_cache"]["pool_peak_bytes"],
        "serve.hub.driver_gap": median(beside["publish"].values()) / median(beside["composed"]),
        "core.mapcache_hit_rate": stats["mapping_cache"]["hit_rate"],
        "serve.edge.small_delivery_ms_p50": probe_small_delivery(),
        "serve.edge.ws_delivery_ms_p50": median(deliveries["/ws"]) * 1e3,
        "serve.edge.mjpeg_delivery_ms_p50": median(deliveries["/mjpeg"]) * 1e3,
        # 2 x 50 deliveries: ten beyond the p90
        "serve.edge.delivery_ms_p90": percentile(
            deliveries["/ws"] + deliveries["/mjpeg"], 90) * 1e3,
        "serve.edge.frames_missed": missed,
        "viz.render_ms_p50": median(beside["render"]) * 1e3,
        "viz.render_mpix_s": full_mpix / median(beside["render"]),
        "jpeg.encode_ms_p50": median(beside["encode"]) * 1e3,
        "jpeg.encode_mpix_s": full_mpix / median(beside["encode"]),
        "jpeg.bytes_per_frame": median(beside["bytes"]),
        "trace.layer_sum_over_wall": reconstruction,
        "obs.bench_trace_overhead": median(beside["composed"]) / median(beside["plain"]),
    }
    shares = work_shares(ctx.log.spans)
    for layer in ("serve.hub", "viz", "jpeg"):
        metrics[f"{layer}.work_share"] = shares.get(layer, 0.0)
    return {"attempted": attempted, "failed": missed, "metrics": metrics}
