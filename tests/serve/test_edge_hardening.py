"""Edge hardening: hostile clients get typed refusals, never a hung edge."""

import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import (
    ConsumerLayout,
    EdgeLimits,
    FrameHub,
    OverloadController,
    SloPolicy,
    StreamEdge,
    SyntheticSource,
)

NX, NY, M = 32, 16, 2


@pytest.fixture
def harden():
    """Factory for a live edge with custom hub/limit knobs."""
    built = []

    def build(limits=None, **hub_kwargs):
        hub = FrameHub(NX, NY, m=M, **hub_kwargs)
        edge = StreamEdge(hub, frame_timeout_s=5.0, limits=limits)
        edge.serve_in_thread()
        built.append((hub, edge))
        return hub, edge

    yield build
    for hub, edge in built:
        edge.shutdown()
        hub.close()


def _raw_get(port, payload, timeout=10.0):
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(payload)
        s.settimeout(timeout)
        data = b""
        try:
            while chunk := s.recv(65536):
                data += chunk
        except (socket.timeout, OSError):
            pass
        return data


def _status(response):
    return int(response.split(b" ", 2)[1])


class TestSlowLoris:
    def test_header_drip_feed_hits_the_request_deadline(self, harden):
        _, edge = harden(limits=EdgeLimits(request_deadline_s=0.3))
        started = time.monotonic()
        with socket.create_connection(("127.0.0.1", edge.port), timeout=10) as s:
            s.settimeout(10.0)
            s.sendall(b"GET / HTTP/1.1\r\n")
            response = b""
            try:
                # Drip one header byte per 50 ms, slower than any per-line
                # timeout would catch but far past the overall deadline.
                for ch in b"X-Slow: " + b"a" * 200:
                    s.sendall(bytes([ch]))
                    time.sleep(0.05)
            except OSError:
                pass  # server hung up mid-drip
            try:
                while chunk := s.recv(4096):
                    response += chunk
            except (socket.timeout, OSError):
                pass
        elapsed = time.monotonic() - started
        assert _status(response) == 408
        assert elapsed < 5.0, "slow-loris held the connection open"

    def test_header_line_count_cap(self, harden):
        _, edge = harden(limits=EdgeLimits(max_header_lines=8))
        flood = b"".join(b"X-H%d: v\r\n" % i for i in range(20))
        response = _raw_get(edge.port, b"GET / HTTP/1.1\r\n" + flood, timeout=5.0)
        assert _status(response) == 400

    def test_header_byte_cap(self, harden):
        _, edge = harden(limits=EdgeLimits(max_header_bytes=512))
        fat = b"X-Fat: " + b"x" * 2048 + b"\r\n"
        response = _raw_get(edge.port, b"GET / HTTP/1.1\r\n" + fat, timeout=5.0)
        assert _status(response) == 400

    def test_cooperative_request_is_untouched(self, harden):
        _, edge = harden(limits=EdgeLimits(request_deadline_s=0.5))
        response = _raw_get(
            edge.port, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", timeout=5.0
        )
        assert _status(response) == 200


class TestGarbage:
    def test_garbage_request_line_is_405(self, harden):
        _, edge = harden()
        response = _raw_get(edge.port, b"\x01\x02garbage junk\r\n\r\n", timeout=5.0)
        assert _status(response) == 405

    def test_bad_query_parameter_is_400(self, harden):
        _, edge = harden()
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(
                f"http://127.0.0.1:{edge.port}/frame?mip=banana", timeout=10
            )
        assert info.value.code == 400


class TestConnectionCap:
    def test_over_cap_connections_get_typed_503(self, harden):
        _, edge = harden(limits=EdgeLimits(max_conns=2))
        holders = [
            socket.create_connection(("127.0.0.1", edge.port), timeout=10)
            for _ in range(2)
        ]
        try:
            time.sleep(0.05)  # let the holders' handlers start
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{edge.port}/healthz", timeout=10
                )
            assert info.value.code == 503
            assert int(info.value.headers["Retry-After"]) >= 1
        finally:
            for s in holders:
                s.close()
        # With the holders gone, the edge serves again.
        deadline = time.monotonic() + 5.0
        while edge._conns > 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        with urllib.request.urlopen(
            f"http://127.0.0.1:{edge.port}/healthz", timeout=10
        ) as response:
            assert response.status == 200


class TestAdmission:
    def test_hub_cap_rejects_http_viewers_with_503(self, harden):
        hub, edge = harden(max_viewers=1)
        with socket.create_connection(("127.0.0.1", edge.port), timeout=10) as s:
            s.sendall(b"GET /mjpeg HTTP/1.1\r\nHost: x\r\n\r\n")
            deadline = time.monotonic() + 5.0
            while hub.viewer_count() < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{edge.port}/frame", timeout=10
                )
            assert info.value.code == 503
            assert "Retry-After" in info.value.headers

    def test_layout_cap_rejects_with_429(self, harden):
        hub, edge = harden(max_viewers_per_layout=1)
        with socket.create_connection(("127.0.0.1", edge.port), timeout=10) as s:
            s.sendall(b"GET /mjpeg HTTP/1.1\r\nHost: x\r\n\r\n")
            deadline = time.monotonic() + 5.0
            while hub.viewer_count() < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            # Same (default) layout: per-layout cap. A different layout
            # would still be admitted.
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{edge.port}/frame", timeout=10
                )
            assert info.value.code == 429
            assert "Retry-After" in info.value.headers

    def test_ws_admission_refusal_is_plain_http_not_mid_protocol(self, harden):
        hub, edge = harden(max_viewers=0)
        response = _raw_get(
            edge.port,
            b"GET /ws HTTP/1.1\r\nHost: x\r\nUpgrade: websocket\r\n"
            b"Connection: Upgrade\r\n"
            b"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n\r\n",
            timeout=5.0,
        )
        assert _status(response) == 503  # refused before the 101 upgrade
        assert b"Retry-After" in response


class TestHealthAndReadiness:
    def test_healthz_and_readyz_answer_ok_when_live(self, harden):
        hub, edge = harden()
        for path in ("/healthz", "/readyz"):
            with urllib.request.urlopen(
                f"http://127.0.0.1:{edge.port}{path}", timeout=10
            ) as response:
                assert response.status == 200

    def test_readyz_flips_on_producer_stall(self, harden):
        controller = OverloadController(SloPolicy(stall_timeout_s=0.1))
        hub, edge = harden(overload=controller)
        source = SyntheticSource(NX, NY, m=M)
        hub.register(ConsumerLayout.make(NX, NY))
        hub.publish(0, source.slabs(0))
        time.sleep(0.2)  # past the stall timeout
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(
                f"http://127.0.0.1:{edge.port}/readyz", timeout=10
            )
        assert info.value.code == 503
        assert b"producer-stalled" in info.value.read()

    def test_stalled_frame_route_serves_last_good_with_stale_header(self, harden):
        controller = OverloadController(SloPolicy(stall_timeout_s=0.1))
        hub, edge = harden(overload=controller)
        source = SyntheticSource(NX, NY, m=M)
        queue = hub.register(ConsumerLayout.make(NX, NY))
        hub.publish(0, source.slabs(0))  # seeds last-good for this layout
        hub.unregister(queue)
        time.sleep(0.2)  # breaker opens
        with urllib.request.urlopen(
            f"http://127.0.0.1:{edge.port}/frame", timeout=10
        ) as response:
            assert response.status == 200
            assert response.headers["X-Frame-Stale"] == "1"
            assert response.headers["X-Frame-Index"] == "0"
            assert response.read()[:2] == b"\xff\xd8"  # JPEG SOI

    def test_stats_surface_overload_and_admission(self, harden):
        import json

        controller = OverloadController()
        hub, edge = harden(max_viewers=7, overload=controller)
        with urllib.request.urlopen(
            f"http://127.0.0.1:{edge.port}/stats", timeout=10
        ) as response:
            stats = json.loads(response.read())
        assert stats["admission"]["max_viewers"] == 7
        assert stats["overload"]["level_name"] == "normal"
        assert stats["overload"]["transitions"] == []
        assert stats["ready"] is True


class TestGracefulDrain:
    def test_shutdown_drains_streams_and_refuses_new_work(self, harden):
        hub, edge = harden()
        source = SyntheticSource(NX, NY, m=M)
        ended = threading.Event()

        def stream():
            try:
                with socket.create_connection(
                    ("127.0.0.1", edge.port), timeout=10
                ) as s:
                    s.settimeout(10.0)
                    s.sendall(b"GET /mjpeg HTTP/1.1\r\nHost: x\r\n\r\n")
                    while s.recv(65536):
                        pass
            except OSError:
                pass
            finally:
                ended.set()

        viewer = threading.Thread(target=stream, daemon=True)
        viewer.start()
        deadline = time.monotonic() + 5.0
        while hub.viewer_count() < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        hub.publish(0, source.slabs(0))
        edge.shutdown()  # drain=True: stream must end cleanly, not hang
        assert ended.wait(timeout=10.0)
        assert hub.draining
        assert hub.viewer_count() == 0
        assert hub.ready() == (False, "draining")
