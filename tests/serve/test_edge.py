"""End-to-end: live StreamEdge served to real sockets over HTTP and WS."""

import json
import socket
import threading
import time
import urllib.request

import pytest

from repro.serve import (
    FrameHub,
    StreamEdge,
    SyntheticSource,
    run_viewers,
)
from tests.jpeg.t81 import decode

NX, NY, M = 32, 16, 2


@pytest.fixture
def served():
    """A live edge plus a publisher helper; torn down after the test."""
    source = SyntheticSource(NX, NY, m=M)
    hub = FrameHub(NX, NY, m=M)
    edge = StreamEdge(hub)
    edge.serve_in_thread()

    def publish(n_frames, wait_viewers=0, period_s=0.01):
        deadline = time.monotonic() + 15.0
        while hub.viewer_count() < wait_viewers and time.monotonic() < deadline:
            time.sleep(0.005)
        assert hub.viewer_count() >= wait_viewers, "viewers failed to attach"
        for index, slabs in source.frames(n_frames):
            hub.publish(index, slabs)
            time.sleep(period_s)

    yield hub, edge, publish
    edge.shutdown()
    hub.close()


def _get(port, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=10
    ) as response:
        return response.status, dict(response.headers), response.read()


class TestHttpRoutes:
    def test_index_page_embeds_stream(self, served):
        hub, edge, _ = served
        status, _, body = _get(edge.port, "/?mip=1")
        assert status == 200
        assert b"/mjpeg?mip=1" in body

    def test_stats_round_trips_json(self, served):
        hub, edge, _ = served
        status, _, body = _get(edge.port, "/stats")
        assert status == 200
        stats = json.loads(body)
        assert stats["viewers"] == 0
        assert "mapping_cache" in stats

    def test_unknown_route_404s(self, served):
        _, edge, _ = served
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(edge.port, "/nope")
        assert info.value.code == 404

    def test_single_frame_endpoint_serves_decodable_jpeg(self, served):
        hub, edge, publish = served
        publisher = threading.Thread(
            target=publish, args=(3,), kwargs={"wait_viewers": 1}, daemon=True
        )
        publisher.start()
        status, headers, body = _get(edge.port, "/frame?x=4&y=2&w=16&h=8")
        publisher.join(timeout=20)
        assert status == 200
        assert headers["Content-Type"] == "image/jpeg"
        assert "X-Frame-Index" in headers
        image = decode(body)
        assert image.shape[:2] == (8, 16)

    def test_bad_ws_upgrade_is_400(self, served):
        _, edge, _ = served
        with socket.create_connection(("127.0.0.1", edge.port), timeout=10) as s:
            s.sendall(b"GET /ws HTTP/1.1\r\nHost: x\r\n\r\n")
            head = s.recv(4096)
        assert b" 400 " in head.split(b"\r\n")[0]


class TestMixedViewers:
    def test_every_viewer_sees_final_frame(self, served):
        hub, edge, publish = served
        n_viewers, n_frames = 12, 5
        holder = {}
        attach = threading.Thread(
            target=lambda: holder.setdefault(
                "reports",
                run_viewers(edge.port, n_viewers, n_frames - 1, timeout_s=20.0),
            ),
            daemon=True,
        )
        attach.start()
        publish(n_frames, wait_viewers=n_viewers)
        attach.join(timeout=40)
        reports = holder["reports"]
        assert len(reports) == n_viewers
        failures = [
            (r.viewer, r.transport, r.error, r.last_frame)
            for r in reports
            if r.error or r.last_frame != n_frames - 1
        ]
        assert not failures
        assert {r.transport for r in reports} == {"ws", "http"}
        # 5 smoke layouts over 12 viewers -> every layout exercised, and the
        # mapping cache holds exactly the distinct ones.
        assert hub.mapping_cache.stats()["entries"] == 5

    def test_viewers_disconnecting_midstream_are_reaped(self, served):
        hub, edge, publish = served
        quitter = threading.Thread(
            target=lambda: run_viewers(edge.port, 4, 1, timeout_s=20.0),
            daemon=True,
        )
        quitter.start()
        publish(3, wait_viewers=4)  # viewers leave after frame 1
        quitter.join(timeout=20)
        deadline = time.monotonic() + 10.0
        while hub.viewer_count() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert hub.viewer_count() == 0
        disconnects = hub.metrics.counters.get("serve.viewers_disconnected", 0)
        assert disconnects >= 4
