"""The web-facing streaming edge: HTTP + WebSocket MJPEG over asyncio.

One :class:`StreamEdge` serves a :class:`~repro.serve.hub.FrameHub` to
browsers and synthetic load clients alike, with no dependencies beyond the
standard library:

* ``GET /``            — an HTML page embedding the MJPEG stream;
* ``GET /stats``       — hub statistics as JSON;
* ``GET /healthz``     — liveness: 200 while the hub is open;
* ``GET /readyz``      — readiness: 503 while draining or when the
                         producer-stall circuit breaker is open;
* ``GET /frame``       — one JPEG (waits for the next published frame;
                         serves the last-good frame with ``X-Frame-Stale``
                         when the producer has stalled);
* ``GET /mjpeg``       — ``multipart/x-mixed-replace`` MJPEG, one part per
                         frame with ``X-Frame-Index`` headers;
* ``GET /ws``          — RFC 6455 upgrade; each binary message is a 4-byte
                         big-endian frame index followed by the JPEG.

Every route accepts the layout query parameters ``x``/``y``/``w``/``h``/
``mip``/``parts`` (see :class:`~repro.serve.layout.ConsumerLayout`).

The edge assumes *hostile* clients (:class:`EdgeLimits`): header parsing
is bounded in lines, bytes, and wall-clock (408 on a slow-loris drip),
concurrent connections are capped (503 + ``Retry-After``), WebSocket
frames are bounded in declared payload size (close 1009), a never-reading
consumer trips a write-stall timeout instead of pinning the handler
forever, and hub admission refusals surface as typed 429/503 responses.
Backpressure is per viewer: the hub's coalescing queue keeps the newest
frames, the transport ``drain()`` paces the socket, and a disconnect —
typed as :class:`~repro.serve.hub.ViewerDisconnectedError` — unregisters
the viewer without disturbing anyone else.
"""

from __future__ import annotations

import asyncio
import json
import struct
import threading
from dataclasses import dataclass
from typing import Optional
from urllib.parse import parse_qsl, urlsplit

from ..obs.tracer import TRACER
from .hub import FrameHub, ViewerDisconnectedError, ViewerQueue, ViewerShedError
from .layout import ConsumerLayout
from .overload import AdmissionError
from .ws import (
    CLOSE_TRY_AGAIN_LATER,
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    WsProtocolError,
    accept_key,
    decode_frame,
    encode_close,
    encode_frame,
)

__all__ = ["EdgeLimits", "StreamEdge"]

MJPEG_BOUNDARY = "ddrframe"

INDEX_HTML = """<!doctype html>
<html><head><title>repro serve</title></head>
<body style="background:#111;color:#eee;font-family:monospace">
<h3>Automated Dynamic Data Redistribution &mdash; live stream</h3>
<img src="/mjpeg{query}" alt="stream">
<p><a href="/stats" style="color:#8cf">/stats</a></p>
</body></html>
"""

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    429: "Too Many Requests",
    503: "Service Unavailable",
}

_DISCONNECTS = (
    ConnectionResetError,
    BrokenPipeError,
    ConnectionAbortedError,
    asyncio.IncompleteReadError,
    ViewerDisconnectedError,
)


@dataclass(frozen=True)
class EdgeLimits:
    """What one client connection may cost the edge.

    ``max_header_lines`` / ``max_header_bytes``
        Caps on header *count* and total header bytes (400 when exceeded) —
        the per-line read timeout alone lets a slow-loris client hold a
        connection forever by dripping one header per nine seconds.
    ``request_deadline_s``
        Wall-clock budget for the whole request head (request line plus
        headers); 408 when exceeded, however slowly the bytes arrive.
    ``max_conns``
        Concurrent-connection cap; beyond it new connections are refused
        with 503 + ``Retry-After`` before any parsing happens.
    ``max_ws_payload``
        Declared-length cap on inbound WebSocket frames (close 1009).
    ``write_stall_timeout_s``
        How long one socket write may sit in ``drain()`` before the client
        is declared dead (never-reading MJPEG/WS consumers).
    ``write_buffer_bytes``
        Transport write-buffer high-water mark, so a stalled client costs
        bounded memory and ``drain()`` exerts real backpressure.
    ``drain_timeout_s``
        Graceful-shutdown budget: how long to wait for in-flight handlers
        after closing the listener before cancelling them.
    ``sock_sndbuf``
        Optional ``SO_SNDBUF`` override (tests shrink it so write stalls
        trip deterministically).
    """

    max_header_lines: int = 64
    max_header_bytes: int = 16384
    request_deadline_s: float = 10.0
    max_conns: int = 256
    max_ws_payload: int = 1 << 20
    retry_after_s: float = 1.0
    write_stall_timeout_s: float = 15.0
    write_buffer_bytes: int = 256 * 1024
    drain_timeout_s: float = 5.0
    sock_sndbuf: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_header_lines < 1 or self.max_header_bytes < 64:
            raise ValueError("header caps are too small to parse any request")
        if self.request_deadline_s <= 0 or self.write_stall_timeout_s <= 0:
            raise ValueError("deadlines must be positive")
        if self.max_conns < 1:
            raise ValueError(f"max_conns must be >= 1, got {self.max_conns}")
        if self.max_ws_payload < 125:
            raise ValueError("max_ws_payload must fit control frames (>= 125)")


class _RequestError(Exception):
    """Parse/deadline violation answered with a typed status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _WriteStall(Exception):
    """A socket write sat in drain() past the stall timeout."""


class _AsyncViewer:
    """Bridges a hub ViewerQueue (threaded) onto the edge's event loop."""

    def __init__(self, hub: FrameHub, layout: ConsumerLayout) -> None:
        self._loop = asyncio.get_running_loop()
        self._event = asyncio.Event()
        self.queue: ViewerQueue = hub.register(layout, on_frame=self._wake)
        self._hub = hub

    def _wake(self) -> None:
        # Called from the producer thread after every push/close.
        self._loop.call_soon_threadsafe(self._event.set)

    async def next_frame(self, timeout: Optional[float] = None):
        """The next buffered frame; None on timeout; typed error on close."""
        while True:
            self._event.clear()
            frame = self.queue.try_pop()  # raises when closed and drained
            if frame is not None:
                return frame
            try:
                await asyncio.wait_for(self._event.wait(), timeout)
            except asyncio.TimeoutError:
                return None

    def release(self) -> None:
        self._hub.unregister(self.queue)


class StreamEdge:
    """Asyncio server fronting one hub.  ``start()`` binds (port 0 picks a
    free port, published back on :attr:`port`); ``serve_in_thread()`` runs
    the whole edge on a background event loop for synchronous drivers."""

    def __init__(
        self,
        hub: FrameHub,
        host: str = "127.0.0.1",
        port: int = 0,
        frame_timeout_s: float = 30.0,
        limits: Optional[EdgeLimits] = None,
    ) -> None:
        self.hub = hub
        self.host = host
        self.port = port
        self.frame_timeout_s = frame_timeout_s
        self.limits = limits if limits is not None else EdgeLimits()
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._conns = 0  # live handler count (event-loop-confined)
        self._conn_tasks: set[asyncio.Task] = set()
        self._draining = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def serve_in_thread(self) -> None:
        """Run the edge on a daemon thread with its own event loop."""
        started = threading.Event()

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            loop.run_until_complete(self.start())
            started.set()
            loop.run_forever()
            loop.run_until_complete(self.stop())
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
            loop.close()

        self._thread = threading.Thread(target=run, name="serve-edge", daemon=True)
        self._thread.start()
        if not started.wait(timeout=10.0):
            raise RuntimeError("edge server failed to start within 10s")

    async def _graceful_drain(self) -> None:
        """Stop accepting, end every stream cleanly, wait for handlers."""
        self._draining = True
        await self.stop()
        self.hub.drain()  # closes viewer queues; stream loops exit typed
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.limits.drain_timeout_s
        while self._conn_tasks and loop.time() < deadline:
            await asyncio.sleep(0.01)
        for task in list(self._conn_tasks):
            task.cancel()

    def shutdown(self, drain: bool = True) -> None:
        """Stop the background thread started by :meth:`serve_in_thread`.

        With ``drain=True`` (default) the edge first refuses new
        connections, closes every viewer queue so in-flight streams end
        cleanly, and waits up to ``limits.drain_timeout_s`` for handlers to
        finish before cancelling stragglers.
        """
        if self._loop is not None and self._loop.is_running() and drain:
            future = asyncio.run_coroutine_threadsafe(
                self._graceful_drain(), self._loop
            )
            try:
                future.result(timeout=self.limits.drain_timeout_s + 5.0)
            except (Exception, TimeoutError):  # noqa: BLE001 - best effort
                pass
        if self._loop is not None and not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._loop = None

    # -- introspection (tests, chaos harness) --------------------------------

    def task_count(self) -> int:
        """Live (not-done) tasks on the edge loop — leak detection."""
        if self._loop is None or not self._loop.is_running():
            return 0

        async def count() -> int:
            return sum(1 for t in asyncio.all_tasks() if not t.done())

        return asyncio.run_coroutine_threadsafe(count(), self._loop).result(
            timeout=5.0
        )

    # -- request handling ----------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        limits = self.limits
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conns += 1
        try:
            writer.transport.set_write_buffer_limits(
                high=limits.write_buffer_bytes
            )
            if limits.sock_sndbuf is not None:
                sock = writer.get_extra_info("socket")
                if sock is not None:
                    import socket as _socket

                    sock.setsockopt(
                        _socket.SOL_SOCKET, _socket.SO_SNDBUF, limits.sock_sndbuf
                    )
            if self._draining:
                await self._refuse(writer, 503, "edge is draining\n")
                return
            if self._conns > limits.max_conns:
                self.hub.metrics.incr("serve.conns_rejected")
                await self._refuse(
                    writer, 503, f"connection cap reached ({limits.max_conns})\n"
                )
                return
            deadline = asyncio.get_running_loop().time() + limits.request_deadline_s
            request = await self._read_line(reader, deadline)
            parts = request.decode("latin-1").split()
            if len(parts) < 2 or parts[0] != "GET":
                await self._plain(writer, 405, "only GET is served here\n")
                return
            target = urlsplit(parts[1])
            params = dict(parse_qsl(target.query))
            headers = await self._read_headers(reader, deadline)
            await self._dispatch(target, params, headers, reader, writer)
        except _RequestError as exc:
            self.hub.metrics.incr("serve.requests_rejected")
            await self._refuse(writer, exc.status, f"{exc}\n")
        except AdmissionError as exc:
            await self._refuse(
                writer, exc.status, f"{exc}\n",
                retry_after_s=exc.retry_after_s,
            )
        except ValueError as exc:
            self.hub.metrics.incr("serve.requests_rejected")
            await self._refuse(writer, 400, f"bad request: {exc}\n")
        except _WriteStall:
            self.hub.metrics.incr("serve.viewer_stalls")
        except _DISCONNECTS:
            self.hub.metrics.incr("serve.transport_disconnects")
        except (asyncio.TimeoutError, asyncio.CancelledError):
            # Cancellation only reaches here on edge shutdown; finishing the
            # task normally keeps the stdlib stream callback quiet.
            pass
        finally:
            self._conns -= 1
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):
                pass

    async def _dispatch(
        self,
        target,
        params: dict[str, str],
        headers: dict[str, str],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        path = target.path
        if path == "/":
            query = f"?{target.query}" if target.query else ""
            await self._plain(
                writer, 200, INDEX_HTML.format(query=query), "text/html"
            )
        elif path == "/stats":
            await self._plain(
                writer, 200, json.dumps(self.hub.stats(), indent=2) + "\n",
                "application/json",
            )
        elif path == "/healthz":
            alive = not self.hub.closed
            await self._plain(
                writer, 200 if alive else 503, "ok\n" if alive else "closed\n"
            )
        elif path == "/readyz":
            ready, reason = self.hub.ready()
            if self._draining:
                ready, reason = False, "draining"
            if ready:
                await self._plain(writer, 200, "ready\n")
            else:
                await self._refuse(writer, 503, f"{reason}\n")
        elif path == "/frame":
            await self._serve_single(writer, params)
        elif path == "/mjpeg":
            await self._serve_mjpeg(reader, writer, params)
        elif path == "/ws":
            await self._serve_ws(reader, writer, headers, params)
        else:
            await self._plain(writer, 404, f"no route {path}\n")

    # -- bounded request-head parsing ----------------------------------------

    @staticmethod
    async def _read_line(
        reader: asyncio.StreamReader, deadline: float
    ) -> bytes:
        """One header line within the overall request deadline."""
        remaining = deadline - asyncio.get_running_loop().time()
        if remaining <= 0:
            raise _RequestError(408, "request header deadline exceeded")
        try:
            return await asyncio.wait_for(reader.readline(), timeout=remaining)
        except asyncio.TimeoutError:
            raise _RequestError(408, "request header deadline exceeded") from None
        except ValueError:
            # StreamReader line-length overrun (a single unbounded line).
            raise _RequestError(400, "request header line too long") from None

    async def _read_headers(
        self, reader: asyncio.StreamReader, deadline: float
    ) -> dict[str, str]:
        """Parse headers under count/byte caps and the request deadline.

        A cooperative client is untouched; a slow-loris drip hits the
        deadline (408), and header floods hit the line or byte caps (400)
        no matter how patiently they are delivered.
        """
        limits = self.limits
        headers: dict[str, str] = {}
        total = 0
        for _ in range(limits.max_header_lines + 1):
            line = await self._read_line(reader, deadline)
            if line in (b"\r\n", b"\n", b""):
                return headers
            total += len(line)
            if total > limits.max_header_bytes:
                raise _RequestError(
                    400,
                    f"request headers exceed {limits.max_header_bytes} bytes",
                )
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raise _RequestError(
            400, f"more than {limits.max_header_lines} request headers"
        )

    # -- responses -----------------------------------------------------------

    @staticmethod
    async def _plain(
        writer: asyncio.StreamWriter,
        status: int,
        body: str,
        content_type: str = "text/plain",
        extra_headers: Optional[dict[str, str]] = None,
    ) -> None:
        text = _STATUS_TEXT.get(status, "OK")
        payload = body.encode()
        head = [
            f"HTTP/1.1 {status} {text}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
        ]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        head.append("Connection: close\r\n\r\n")
        writer.write("\r\n".join(head).encode() + payload)
        await writer.drain()

    async def _refuse(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: str,
        retry_after_s: Optional[float] = None,
    ) -> None:
        """A typed refusal; 429/503 always carry ``Retry-After``."""
        extra: dict[str, str] = {}
        if status in (429, 503):
            after = (
                retry_after_s if retry_after_s is not None
                else self.limits.retry_after_s
            )
            extra["Retry-After"] = str(max(1, round(after)))
        try:
            await self._plain(writer, status, body, extra_headers=extra)
        except _DISCONNECTS:
            pass

    async def _drain_writer(self, writer: asyncio.StreamWriter) -> None:
        """``drain()`` bounded by the write-stall timeout: a client that
        stopped reading is disconnected instead of pinning the handler.
        The transport is aborted (no lingering flush of bytes the client
        will never read), so the handler task ends promptly too."""
        try:
            await asyncio.wait_for(
                writer.drain(), timeout=self.limits.write_stall_timeout_s
            )
        except asyncio.TimeoutError:
            writer.transport.abort()
            raise _WriteStall("client stopped reading") from None

    def _layout(self, params: dict[str, str]) -> ConsumerLayout:
        return ConsumerLayout.from_query(params, self.hub.nx, self.hub.ny)

    # -- streaming routes ----------------------------------------------------

    async def _write_jpeg(
        self, writer: asyncio.StreamWriter, frame, stale: bool = False
    ) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: image/jpeg\r\n"
            f"Content-Length: {len(frame.jpeg)}\r\n"
            f"X-Frame-Index: {frame.index}\r\n"
        )
        if stale:
            head += "X-Frame-Stale: 1\r\n"
        writer.write((head + "Connection: close\r\n\r\n").encode() + frame.jpeg)
        await self._drain_writer(writer)

    async def _serve_single(
        self, writer: asyncio.StreamWriter, params: dict[str, str]
    ) -> None:
        layout = self._layout(params)
        if self.hub.stalled():
            # Circuit breaker open: answer with the last-good frame at once
            # instead of hanging on a producer that has gone quiet.
            frame = self.hub.last_frame(layout)
            if frame is not None:
                self.hub.metrics.incr("serve.frames_stale_served")
                await self._write_jpeg(writer, frame, stale=True)
                return
        viewer = _AsyncViewer(self.hub, layout)
        try:
            frame = await viewer.next_frame(timeout=self.frame_timeout_s)
            if frame is None:
                frame = self.hub.last_frame(viewer.queue.layout)
                if frame is not None:
                    self.hub.metrics.incr("serve.frames_stale_served")
                    await self._write_jpeg(writer, frame, stale=True)
                    return
                await self._plain(writer, 404, "no frame published in time\n")
                return
            await self._write_jpeg(writer, frame)
        finally:
            viewer.release()

    async def _serve_mjpeg(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        params: dict[str, str],
    ) -> None:
        viewer = _AsyncViewer(self.hub, self._layout(params))

        async def watch_eof() -> None:
            # A write to a half-closed socket only fails on the *second*
            # attempt; reading EOF notices the client leaving immediately.
            try:
                while await reader.read(65536):
                    pass
            except (_DISCONNECTS + (asyncio.CancelledError,)):
                pass
            finally:
                viewer.queue.close()

        eof_task = asyncio.ensure_future(watch_eof())
        span = TRACER.span(
            "serve.viewer", transport="mjpeg", viewer=viewer.queue.viewer_id,
            layout=viewer.queue.layout.describe(),
        )
        try:
            with span:
                writer.write(
                    "HTTP/1.1 200 OK\r\n"
                    "Content-Type: multipart/x-mixed-replace; "
                    f"boundary={MJPEG_BOUNDARY}\r\n"
                    "Connection: close\r\n\r\n".encode()
                )
                await self._drain_writer(writer)
                while True:
                    frame = await viewer.next_frame(timeout=self.frame_timeout_s)
                    if frame is None:
                        break  # idle too long; drop the stream
                    writer.write(
                        f"--{MJPEG_BOUNDARY}\r\n"
                        "Content-Type: image/jpeg\r\n"
                        f"Content-Length: {len(frame.jpeg)}\r\n"
                        f"X-Frame-Index: {frame.index}\r\n\r\n".encode()
                        + frame.jpeg + b"\r\n"
                    )
                    await self._drain_writer(writer)  # per-viewer backpressure
        except ViewerShedError:
            self.hub.metrics.incr("serve.viewer_shed_closes")
        except _WriteStall:
            self.hub.metrics.incr("serve.viewer_stalls")
        except _DISCONNECTS:
            self.hub.metrics.incr("serve.viewer_disconnects")
        finally:
            eof_task.cancel()
            viewer.release()

    async def _serve_ws(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        headers: dict[str, str],
        params: dict[str, str],
    ) -> None:
        key = headers.get("sec-websocket-key")
        if key is None or "websocket" not in headers.get("upgrade", "").lower():
            await self._plain(writer, 400, "expected a WebSocket upgrade\n")
            return
        # Register before upgrading so admission refusals can still answer
        # with a plain typed 429/503 instead of a mid-protocol close.
        viewer = _AsyncViewer(self.hub, self._layout(params))
        closed = asyncio.Event()
        try:
            writer.write(
                "HTTP/1.1 101 Switching Protocols\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Accept: {accept_key(key)}\r\n\r\n".encode()
            )
            await self._drain_writer(writer)
        except BaseException:
            viewer.release()
            raise

        async def read_client() -> None:
            # Drain client frames: answer pings, honour close, reject
            # protocol violations with a proper close code, ignore rest.
            buffer = b""
            try:
                while not closed.is_set():
                    chunk = await reader.read(4096)
                    if not chunk:
                        break
                    buffer += chunk
                    while (
                        parsed := decode_frame(
                            buffer, max_payload=self.limits.max_ws_payload
                        )
                    ) is not None:
                        opcode, payload, consumed = parsed
                        buffer = buffer[consumed:]
                        if opcode == OP_CLOSE:
                            return
                        if opcode == OP_PING:
                            writer.write(encode_frame(payload, OP_PONG))
                            await self._drain_writer(writer)
            except WsProtocolError as exc:
                self.hub.metrics.incr("serve.ws_protocol_errors")
                try:
                    writer.write(encode_close(exc.code, str(exc).encode()[:80]))
                    await writer.drain()
                except (_DISCONNECTS + (_WriteStall, asyncio.CancelledError)):
                    pass
            except (_DISCONNECTS + (_WriteStall, ValueError)):
                pass
            finally:
                closed.set()
                viewer.queue.close()

        reader_task = asyncio.ensure_future(read_client())
        span = TRACER.span(
            "serve.viewer", transport="ws", viewer=viewer.queue.viewer_id,
            layout=viewer.queue.layout.describe(),
        )
        try:
            with span:
                while not closed.is_set():
                    frame = await viewer.next_frame(timeout=self.frame_timeout_s)
                    if frame is None:
                        break
                    writer.write(
                        encode_frame(struct.pack(">I", frame.index) + frame.jpeg)
                    )
                    await self._drain_writer(writer)
        except ViewerShedError:
            # Shed by policy: tell the client to retry later, politely.
            self.hub.metrics.incr("serve.viewer_shed_closes")
            try:
                writer.write(encode_close(CLOSE_TRY_AGAIN_LATER, b"shed"))
                await writer.drain()
            except (_DISCONNECTS + (asyncio.CancelledError,)):
                pass
        except _WriteStall:
            self.hub.metrics.incr("serve.viewer_stalls")
        except _DISCONNECTS:
            self.hub.metrics.incr("serve.viewer_disconnects")
        finally:
            closed.set()
            reader_task.cancel()
            viewer.release()
