"""Edge chaos: seeded misbehaving clients against a live serving edge.

The serving stack (:mod:`repro.serve`) claims it survives hostile
traffic: slow-loris header drips, garbage bytes, WebSocket protocol
violations, half-closed sockets, connect floods, and consumers that never
read.  The ``edge`` scenario of :func:`repro.faults.chaos.run_chaos` makes
that claim falsifiable the same way the other four do for the transport
fabric — each run (:func:`storm`) boots a real hub + edge with tight
limits, publishes real frames throughout, storms it with a seeded mix of
misbehaving clients, and demands one of exactly three healthy outcomes:

* **OK** — the edge absorbed everything without engaging any policy;
* **DEGRADED** (by policy) — the overload ladder engaged, viewers were
  shed, or write-stall guards fired; all deliberate, all typed;
* **TYPED_ERROR** — misbehavior was refused with typed responses
  (400/408/429/503, WS close codes) and nothing else gave.

A run **FAILS** when the edge stops answering health checks afterwards,
viewers never return to zero (stuck handlers), or event-loop tasks leak.
``python -m repro chaos --edge`` drives this from the command line and CI.
This module holds only the clients and the storm; seeding, classification
of escaped exceptions and reporting are the runner's.
"""

from __future__ import annotations

import json
import random
import socket
import struct
import threading
import time
from typing import Callable, Optional

from ..serve.edge import EdgeLimits, StreamEdge
from ..serve.hub import FrameHub
from ..serve.overload import OverloadController, SloPolicy
from ..serve.producer import SyntheticSource
from .chaos import DEGRADED, OK, TYPED_ERROR, ChaosVerificationError

__all__ = ["BEHAVIORS", "storm"]

#: Typed-refusal statuses the edge is allowed (expected) to answer with.
_TYPED_STATUSES = frozenset({400, 404, 405, 408, 429, 503})

#: Counters whose presence marks a run as degraded *by policy*.
_DEGRADE_COUNTERS = (
    "serve.viewers_shed",
    "serve.viewer_stalls",
    "serve.mip_forced",
    "serve.frames_ratelimited",
)

#: Counters whose presence marks typed refusals.
_TYPED_COUNTERS = (
    "serve.admission_rejected",
    "serve.requests_rejected",
    "serve.conns_rejected",
    "serve.ws_protocol_errors",
)


# -- low-level client plumbing ------------------------------------------------


def _connect(port: int, timeout: float = 3.0, rcvbuf: Optional[int] = None):
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    if rcvbuf is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.settimeout(timeout)
    return sock


def _recv_all(sock, limit: int = 1 << 20) -> bytes:
    data = b""
    try:
        while len(data) < limit:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    except (socket.timeout, OSError):
        pass
    return data


def _status_of(response: bytes) -> Optional[int]:
    try:
        return int(response.split(b" ", 2)[1])
    except (IndexError, ValueError):
        return None


def _http_get(port: int, path: str, timeout: float = 3.0) -> bytes:
    with _connect(port, timeout=timeout) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: chaos\r\n\r\n".encode())
        return _recv_all(sock)


# -- the misbehaving clients --------------------------------------------------
#
# Each behavior returns a result dict: what it did, what status (if any)
# it got back, and whether the edge's reaction was acceptable.  None of
# them may hang: every socket carries a timeout.


def _do_slow_loris(port: int, rng: random.Random, limits: EdgeLimits) -> dict:
    """Drip header bytes slower than the request deadline allows."""
    payload = b"GET / HTTP/1.1\r\nX-Drip: " + bytes(
        rng.choice(b"abcdefgh") for _ in range(256)
    )
    deadline = time.monotonic() + limits.request_deadline_s + 2.0
    with _connect(port) as sock:
        try:
            for i in range(len(payload)):
                if time.monotonic() > deadline:
                    break
                sock.sendall(payload[i : i + 1])
                time.sleep(limits.request_deadline_s / 8)
        except OSError:
            pass  # server already hung up — that is the point
        response = _recv_all(sock, limit=4096)
    return {"behavior": "slow_loris", "status": _status_of(response)}


def _do_garbage(port: int, rng: random.Random, limits: EdgeLimits) -> dict:
    """A burst of seeded garbage bytes terminated with CRLF."""
    junk = bytes(rng.randrange(256) for _ in range(rng.randrange(16, 512)))
    with _connect(port) as sock:
        try:
            sock.sendall(junk.replace(b"\n", b"x") + b"\r\n\r\n")
        except OSError:
            pass
        response = _recv_all(sock, limit=4096)
    return {"behavior": "garbage", "status": _status_of(response)}


def _do_ws_violation(port: int, rng: random.Random, limits: EdgeLimits) -> dict:
    """A clean WS upgrade followed by a protocol-violating frame."""
    with _connect(port) as sock:
        sock.sendall(
            b"GET /ws?mip=1 HTTP/1.1\r\nHost: chaos\r\n"
            b"Upgrade: websocket\r\nConnection: Upgrade\r\n"
            b"Sec-WebSocket-Key: Y2hhb3NjaGFvc2NoYW9zY2g=\r\n"
            b"Sec-WebSocket-Version: 13\r\n\r\n"
        )
        head = sock.recv(4096)
        if not head.startswith(b"HTTP/1.1 101"):
            # Admission refused the upgrade — a typed response, also fine.
            return {"behavior": "ws_violation", "status": _status_of(head)}
        oversized = struct.pack(">Q", limits.max_ws_payload + 1) + bytes(4)
        violations = {
            "rsv": bytes([0xC2, 0x81, 1, 2, 3, 4]) + b"x",  # RSV bits set
            "opcode": bytes([0x83, 0x80, 0, 0, 0, 0]),  # reserved opcode 0x3
            "oversized": bytes([0x82, 0xFF]) + oversized,  # length past the payload cap
            "fragmented": bytes([0x02, 0x81, 0, 0, 0, 0]) + b"x",  # FIN=0
        }
        try:
            sock.sendall(violations[rng.choice(tuple(violations))])
        except OSError:
            pass
        close = _recv_all(sock, limit=1 << 16)
        # The tail of whatever arrives should contain a server close frame
        # (0x88); frames may precede it.
        return {
            "behavior": "ws_violation",
            "status": 101,
            "closed": b"\x88" in close[-4096:] or close == b"",
        }


def _do_half_closed(port: int, rng: random.Random, limits: EdgeLimits) -> dict:
    """Open a stream, read a little, then vanish mid-frame."""
    path = rng.choice(("/mjpeg", "/mjpeg?mip=1", "/frame"))
    with _connect(port) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: chaos\r\n\r\n".encode())
        try:
            sock.recv(rng.randrange(1, 2048))
        except (socket.timeout, OSError):
            pass
        # Abortive close: RST instead of FIN, the rudest exit available.
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
    return {"behavior": "half_closed", "status": None}


def _do_connect_flood(port: int, rng: random.Random, limits: EdgeLimits) -> dict:
    """Burst past the connection cap; expect typed 503s beyond it."""
    n = limits.max_conns + rng.randrange(2, 6)
    socks, statuses = [], []
    try:
        for _ in range(n):
            try:
                socks.append(_connect(port, timeout=1.0))
            except OSError:
                statuses.append(None)
        for sock in socks:
            try:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: f\r\n\r\n")
            except OSError:
                pass
        for sock in socks:
            statuses.append(_status_of(_recv_all(sock, limit=4096)))
    finally:
        for sock in socks:
            try:
                sock.close()
            except OSError:
                pass
    return {
        "behavior": "connect_flood",
        "status": 503 if 503 in statuses else statuses[0] if statuses else None,
        "rejected": statuses.count(503),
        "answered": statuses.count(200),
    }


def _do_never_reading(port: int, rng: random.Random, limits: EdgeLimits) -> dict:
    """Subscribe to the MJPEG stream and never read a byte: the write
    stall guard must shed this consumer instead of pinning a handler."""
    sock = _connect(port, timeout=8.0, rcvbuf=2048)
    try:
        sock.sendall(b"GET /mjpeg HTTP/1.1\r\nHost: chaos\r\n\r\n")
        # Do not read.  Wait past the write-stall timeout; the server must
        # disconnect us (recv on the half-dead socket returns quickly).
        time.sleep(limits.write_stall_timeout_s + 1.0)
    finally:
        sock.close()
    return {"behavior": "never_reading", "status": None}


def _do_well_behaved(port: int, rng: random.Random, limits: EdgeLimits) -> dict:
    """A cooperative viewer mixed into every storm: the edge must keep
    serving real frames to clients that follow the rules.  Cooperation
    includes honoring typed 429/503 + ``Retry-After`` refusals mid-flood —
    the client retries and must be served once the burst clears."""
    query = rng.choice(("", "?mip=1", "?w=24&h=16&parts=2"))
    status, retries, served = None, 0, False
    for attempt in range(6):
        response = _http_get(port, f"/frame{query}", timeout=6.0)
        status = _status_of(response)
        served = status == 200 and b"\xff\xd8" in response  # JPEG SOI marker
        if served or status not in (429, 503):
            break
        retries += 1
        time.sleep(0.3)
    return {"behavior": "well_behaved", "status": status, "ok": served,
            "retries": retries}


_CLIENTS: dict[str, Callable] = {
    "slow_loris": _do_slow_loris,
    "garbage": _do_garbage,
    "ws_violation": _do_ws_violation,
    "half_closed": _do_half_closed,
    "connect_flood": _do_connect_flood,
    "never_reading": _do_never_reading,
    "well_behaved": _do_well_behaved,
}

#: Misbehaving-client behaviors a seeded plan draws from.
BEHAVIORS = tuple(name for name in _CLIENTS if name != "well_behaved")


# -- one storm ----------------------------------------------------------------


#: Tight limits so every guard trips inside a ~2 s storm.
CHAOS_LIMITS = EdgeLimits(
    max_header_lines=32,
    max_header_bytes=4096,
    request_deadline_s=0.5,
    max_conns=12,
    max_ws_payload=1 << 16,
    retry_after_s=1.0,
    write_stall_timeout_s=0.5,
    write_buffer_bytes=8192,
    drain_timeout_s=3.0,
    sock_sndbuf=4096,
)


def storm(plan_seed: int, clients: int, stats: dict) -> str:
    """One boot-storm-verify cycle; returns the outcome label.

    ``plan_seed`` draws ``clients`` behaviours from :data:`BEHAVIORS` (plus
    one cooperative viewer that must still be served).  ``stats["clients"]``
    collects each client's result as it reports — readable even when the
    storm raises — and the edge counters join it on success.  An edge that
    did not survive in a healthy state raises
    :class:`~repro.faults.chaos.ChaosVerificationError`.
    """
    rng = random.Random(plan_seed)
    limits = CHAOS_LIMITS
    controller = OverloadController(
        SloPolicy(breach_steps=2, clear_steps=3, stall_timeout_s=10.0)
    )
    source = SyntheticSource(48, 32, m=2)
    hub = FrameHub(
        48, 32, m=2,
        quality=70,
        max_viewers=8,
        max_viewers_per_layout=4,
        overload=controller,
        retry_after_s=1.0,
    )
    edge = StreamEdge(hub, frame_timeout_s=5.0, limits=limits)
    edge.serve_in_thread()

    stop = threading.Event()

    def produce() -> None:
        frame = 0
        while not stop.is_set():
            hub.publish(frame, source.slabs(frame))
            frame += 1
            time.sleep(0.01)

    producer = threading.Thread(target=produce, name="chaos-producer", daemon=True)
    producer.start()

    results: list[dict] = stats["clients"]
    try:
        # Let the hub publish a few frames, then measure the task baseline.
        time.sleep(0.1)
        baseline_tasks = edge.task_count()

        plan = [rng.choice(BEHAVIORS) for _ in range(clients)] + ["well_behaved"]
        rng.shuffle(plan)

        def run_client(name: str, client_rng: random.Random) -> None:
            try:
                results.append(_CLIENTS[name](edge.port, client_rng, limits))
            except Exception as exc:  # noqa: BLE001 - recorded, judged below
                results.append(
                    {"behavior": name, "status": None,
                     "client_error": f"{type(exc).__name__}: {exc}"}
                )

        threads = [
            threading.Thread(
                target=run_client,
                # str seeds derive deterministically (no hash randomization)
                args=(name, random.Random(f"{plan_seed}:{i}:{name}")),
                daemon=True,
            )
            for i, name in enumerate(plan)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=limits.write_stall_timeout_s + 10.0)
        if any(thread.is_alive() for thread in threads):
            raise ChaosVerificationError("a chaos client hung past its deadline")

        # -- post-storm health -------------------------------------------
        health = _http_get(edge.port, "/healthz")
        if _status_of(health) != 200:
            raise ChaosVerificationError(
                f"/healthz did not answer 200 after the storm: {health[:80]!r}"
            )
        stats_raw = _http_get(edge.port, "/stats")
        body = stats_raw.split(b"\r\n\r\n", 1)[-1]
        stats_json = json.loads(body)

        deadline = time.monotonic() + 5.0
        for what, held in (
            ("viewers still registered — a handler is stuck", hub.viewer_count),
            ("event-loop tasks leaked", lambda: edge.task_count() - baseline_tasks),
        ):
            while held() > 0 and time.monotonic() < deadline:
                time.sleep(0.05)
            if held() > 0:
                raise ChaosVerificationError(f"{held()} {what} past the storm")

        # A cooperative viewer must have been served a real frame.
        for result in results:
            if result["behavior"] == "well_behaved" and not result.get("ok"):
                raise ChaosVerificationError(
                    f"well-behaved viewer was not served: {result}"
                )
        for result in results:
            if "client_error" in result:
                raise ChaosVerificationError(
                    f"chaos client {result['behavior']} died untyped: "
                    f"{result['client_error']}"
                )
            status = result.get("status")
            if status is not None and status not in _TYPED_STATUSES | {101, 200}:
                raise ChaosVerificationError(
                    f"{result['behavior']} got untyped status {status}"
                )

        counters = hub.metrics.counters
        degraded = controller.level > 0 or any(
            counters.get(name, 0) for name in _DEGRADE_COUNTERS
        ) or controller.shed_total > 0
        typed = any(counters.get(name, 0) for name in _TYPED_COUNTERS) or any(
            r.get("status") in _TYPED_STATUSES for r in results
        )
        stats.update(
            ladder_level=controller.level,
            transitions=len(controller.transitions),
            shed_total=controller.shed_total,
            viewers_after=stats_json["viewers"],
            counters={
                name: counters.get(name, 0)
                for name in _DEGRADE_COUNTERS + _TYPED_COUNTERS
                if counters.get(name, 0)
            },
        )
    finally:
        stop.set()
        producer.join(timeout=5.0)
        edge.shutdown()
        hub.close()
    if producer.is_alive():
        raise ChaosVerificationError("producer thread failed to stop")
    return DEGRADED if degraded else TYPED_ERROR if typed else OK
