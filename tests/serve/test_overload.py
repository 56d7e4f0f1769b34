"""OverloadController: ladder dynamics, admission, shed, circuit breaker."""

import threading
import time

import pytest

from repro.obs import tracing
from repro.serve import (
    AdmissionError,
    ConsumerLayout,
    FrameHub,
    HubSaturatedError,
    LayoutSaturatedError,
    OverloadController,
    SloPolicy,
    SyntheticSource,
    ViewerShedError,
)
from repro.serve.overload import LADDER

NX, NY, M = 32, 16, 2

FAST = SloPolicy(publish_slo_s=0.01, encode_slo_s=0.01, breach_steps=2,
                 clear_steps=2, ewma_alpha=1.0)


def climb(controller, rungs):
    """Feed breaching epochs until the ladder reaches ``rungs``."""
    for _ in range(rungs * controller.policy.breach_steps):
        controller.observe(publish_s=1.0)
    return controller.level


class TestLadder:
    def test_hysteresis_requires_consecutive_breaches(self):
        controller = OverloadController(FAST)
        controller.observe(publish_s=1.0)  # one breach: not enough
        assert controller.level == 0
        controller.observe(publish_s=1.0)  # second consecutive: degrade
        assert controller.level == 1
        assert LADDER[controller.level] == "quality"

    def test_single_noisy_epoch_never_moves_the_ladder(self):
        controller = OverloadController(FAST)
        for _ in range(10):
            controller.observe(publish_s=1.0)  # breach
            controller.observe(publish_s=0.0)  # healthy resets the streak
        assert controller.level == 0
        assert controller.transitions == []

    def test_full_climb_and_recovery(self):
        controller = OverloadController(FAST)
        assert climb(controller, 4) == LADDER.index("shed")
        # Sustained health walks back down one rung per clear_steps.
        for _ in range(4 * FAST.clear_steps):
            controller.observe(publish_s=0.0)
        assert controller.level == 0
        directions = [t["direction"] for t in controller.transitions]
        assert directions == ["degrade"] * 4 + ["recover"] * 4

    def test_knobs_follow_the_rungs(self):
        controller = OverloadController(FAST)
        assert controller.quality(80) == 80
        assert controller.min_mip == 0
        assert controller.frame_stride == 1
        climb(controller, 1)  # quality
        assert controller.quality(80) == FAST.degraded_quality
        climb(controller, 1)  # mip
        assert controller.min_mip == FAST.forced_mip
        climb(controller, 1)  # fps
        assert controller.frame_stride == FAST.frame_stride

    def test_transitions_emit_degrade_spans(self):
        with tracing() as tracer:
            controller = OverloadController(FAST)
            climb(controller, 2)
            for _ in range(2 * FAST.clear_steps):
                controller.observe(publish_s=0.0)
        spans = [r for r in tracer.records() if r.name == "serve.degrade"]
        assert len(spans) == 4  # 2 down + 2 up
        assert spans[0].attrs["direction"] == "degrade"
        assert spans[0].attrs["from_level"] == "normal"
        assert spans[0].attrs["to_level"] == "quality"
        assert "publish_latency" in spans[0].attrs["reason"]
        assert spans[-1].attrs["direction"] == "recover"

    def test_reasons_name_every_breached_slo(self):
        policy = SloPolicy(publish_slo_s=0.01, encode_slo_s=0.01,
                          drop_rate_slo=0.5, pool_budget_bytes=100,
                          ewma_alpha=1.0)
        controller = OverloadController(policy)
        controller.observe(publish_s=1.0, encode_s=1.0, drop_rate=0.9,
                           pool_bytes=200)
        assert set(controller.stats()["active_reasons"]) == {
            "publish_latency", "encode_time", "queue_drops", "mapping_pool",
        }

    def test_shed_request_fires_once_per_breach_cycle(self):
        controller = OverloadController(FAST)
        climb(controller, 4)  # reach shed
        climb(controller, 1)  # breach again while at shed -> pending
        n = controller.take_shed_request(viewer_count=8)
        assert n == max(FAST.min_shed, int(8 * FAST.shed_fraction))
        assert controller.take_shed_request(viewer_count=8) == 0  # consumed


class TestRegistryDeltas:
    def test_observe_registry_reads_epoch_deltas(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        controller = OverloadController(FAST)
        registry.observe("serve.publish", 1.0)
        controller.observe_registry(registry)
        assert controller.publish_ewma == pytest.approx(1.0)
        # A fast second epoch must not be polluted by the slow first one.
        registry.observe("serve.publish", 0.001)
        controller.observe_registry(registry)
        assert controller.publish_ewma == pytest.approx(0.001)

    def test_drop_rate_comes_from_counter_deltas(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        controller = OverloadController(FAST)
        registry.incr("serve.frames_delivered", 10)
        registry.incr("serve.frames_coalesced", 30)
        controller.observe_registry(registry)
        assert controller.drop_ewma == pytest.approx(0.75)


class TestHubIntegration:
    def test_admission_caps_raise_typed(self):
        hub = FrameHub(NX, NY, m=M, max_viewers=2, max_viewers_per_layout=1)
        full = ConsumerLayout.make(NX, NY)
        hub.register(full)
        with pytest.raises(LayoutSaturatedError) as info:
            hub.register(full)
        assert info.value.status == 429
        assert info.value.retry_after_s > 0
        hub.register(ConsumerLayout.make(NX, NY, mip=1))
        with pytest.raises(HubSaturatedError) as info:
            hub.register(ConsumerLayout.make(NX, NY, mip=2))
        assert info.value.status == 503
        assert hub.stats()["admission"]["rejected"] == 2
        hub.close()

    def test_double_admission_load_is_refused_typed(self):
        cap, per_layout, frames = 8, 3, 12
        controller = OverloadController()
        hub = FrameHub(NX, NY, m=M, max_viewers=cap,
                       max_viewers_per_layout=per_layout, overload=controller)
        layouts = [ConsumerLayout.make(NX, NY, mip=mip) for mip in (0, 1, 2)]
        layouts.append(ConsumerLayout.make(NX, NY, x=8, y=4, w=16, h=8))
        # Flood one layout past its cap (429s), then spread the rest of the
        # 2x offered load round-robin until the hub-wide cap (503s).
        offers = [layouts[0]] * (per_layout + 2)
        offers += [layouts[1 + i % 3] for i in range(2 * cap - len(offers))]
        admitted, refused = [], []
        for layout in offers:
            try:
                admitted.append(hub.register(layout))
            except AdmissionError as exc:
                refused.append(exc)
        assert len(admitted) == cap and len(refused) == cap
        assert all(isinstance(e, (HubSaturatedError, LayoutSaturatedError)) for e in refused)
        assert {e.status for e in refused} == {429, 503}
        assert all(e.retry_after_s > 0 for e in refused)

        seen = [-1] * cap  # last frame index each admitted viewer popped

        def consume(i):
            while seen[i] < frames - 1:
                seen[i] = admitted[i].pop(timeout=10.0).index

        consumers = [threading.Thread(target=consume, args=(i,), daemon=True) for i in range(cap)]
        for thread in consumers:
            thread.start()
        for index, slabs in SyntheticSource(NX, NY, m=M).frames(frames):
            hub.publish(index, slabs, force=index == frames - 1)
            # Prompt consumers: every viewer takes a frame before the next
            # one is published, so nothing here is overload.
            deadline = time.monotonic() + 10.0
            while min(seen) < index and time.monotonic() < deadline:
                time.sleep(0.001)
        for thread in consumers:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in consumers)
        assert seen == [frames - 1] * cap
        assert controller.level == 0 and controller.shed_total == 0
        hub.close()

    def test_mip_rung_coarsens_new_registrations(self):
        controller = OverloadController(FAST)
        climb(controller, 2)  # mip rung
        hub = FrameHub(NX, NY, m=M, overload=controller)
        queue = hub.register(ConsumerLayout.make(NX, NY))  # asked for mip 0
        assert queue.layout.mip == FAST.forced_mip
        assert hub.metrics.counters["serve.mip_forced"] == 1
        hub.close()

    def test_fps_rung_strides_but_force_publishes(self):
        controller = OverloadController(FAST)
        climb(controller, 3)  # fps rung: stride 2
        source = SyntheticSource(NX, NY, m=M)
        hub = FrameHub(NX, NY, m=M, overload=controller)
        queue = hub.register(ConsumerLayout.make(NX, NY))
        # Healthy epochs now, so the ladder does not climb further.
        controller.observe(publish_s=0.0)
        assert hub.publish(1, source.slabs(1)) == 0  # off-stride: skipped
        assert hub.frames_ratelimited == 1
        assert hub.publish(2, source.slabs(2)) == 1  # on-stride
        assert hub.publish(3, source.slabs(3), force=True) == 1  # final frame
        assert queue.last_index == 3
        hub.close()

    def test_shed_closes_slowest_viewers_typed(self):
        hub = FrameHub(NX, NY, m=M)
        source = SyntheticSource(NX, NY, m=M)
        fast = hub.register(ConsumerLayout.make(NX, NY))
        slow = hub.register(ConsumerLayout.make(NX, NY, mip=1))
        for index, slabs in source.frames(6):
            hub.publish(index, slabs)
            while fast.try_pop() is not None:  # fast viewer keeps up
                pass
        assert slow.coalesced > 0
        assert hub.shed_viewers(1) == 1
        assert hub.viewer_count() == 1
        with pytest.raises(ViewerShedError):
            while True:
                slow.pop(timeout=0.1)
        assert fast.try_pop() is None  # survivor still registered, not shed
        assert hub.metrics.counters["serve.viewers_shed"] == 1
        hub.close()

    def test_publish_applies_pending_shed(self):
        controller = OverloadController(FAST)
        source = SyntheticSource(NX, NY, m=M)
        hub = FrameHub(NX, NY, m=M, overload=controller)
        queues = [hub.register(ConsumerLayout.make(NX, NY)) for _ in range(4)]
        climb(controller, 5)  # at shed rung with a shed pending
        hub.publish(0, source.slabs(0))
        assert hub.viewer_count() < 4
        assert controller.shed_total >= 1
        assert any(q.closed for q in queues)
        hub.close()


class TestCircuitBreaker:
    def test_stall_flips_readiness_and_serves_last_good(self):
        policy = SloPolicy(stall_timeout_s=0.05)
        controller = OverloadController(policy)
        source = SyntheticSource(NX, NY, m=M)
        hub = FrameHub(NX, NY, m=M, overload=controller)
        layout = ConsumerLayout.make(NX, NY)
        hub.register(layout)
        assert not hub.stalled()  # never published: not stalled
        hub.publish(0, source.slabs(0))
        assert hub.ready() == (True, "ready")
        time.sleep(0.1)  # producer goes quiet past the stall timeout
        assert hub.stalled()
        ready, reason = hub.ready()
        assert not ready and reason == "producer-stalled"
        stale = hub.last_frame(layout)
        assert stale is not None and stale.index == 0
        # A fresh publish closes the breaker again.
        hub.publish(1, source.slabs(1))
        assert hub.ready() == (True, "ready")
        hub.close()

    def test_drain_refuses_readiness_but_keeps_hub_alive(self):
        hub = FrameHub(NX, NY, m=M)
        queue = hub.register(ConsumerLayout.make(NX, NY))
        hub.drain()
        assert hub.ready() == (False, "draining")
        assert not hub.closed
        assert hub.viewer_count() == 0
        with pytest.raises(Exception):
            queue.pop(timeout=0.1)
        hub.close()
