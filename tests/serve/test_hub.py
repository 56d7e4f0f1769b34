"""FrameHub: per-layout DDR mappings, coalescing queues, typed disconnects."""

import numpy as np
import pytest

from repro.core import Redistributor
from repro.mpisim.executor import world_communicators
from repro.serve import (
    ConsumerLayout,
    FrameHub,
    ServedFrame,
    SyntheticSource,
    ViewerDisconnectedError,
    ViewerQueue,
)

NX, NY, M = 32, 16, 3

LAYOUTS = [
    ConsumerLayout.make(NX, NY),
    ConsumerLayout.make(NX, NY, x=4, y=2, w=24, h=12),
    ConsumerLayout.make(NX, NY, mip=1, parts=2),
]


def _frame(index=0, jpeg=b"\xff\xd8stub"):
    return ServedFrame(index, ("k",), jpeg, (4, 4))


class TestViewerQueue:
    def test_coalesces_oldest_when_full(self):
        queue = ViewerQueue(0, LAYOUTS[0], capacity=2)
        for i in range(5):
            assert queue.push(_frame(i))
        assert queue.coalesced == 3
        assert queue.try_pop().index == 3
        assert queue.try_pop().index == 4
        assert queue.try_pop() is None
        assert queue.last_index == 4

    def test_closed_queue_raises_typed_error_after_drain(self):
        queue = ViewerQueue(0, LAYOUTS[0])
        queue.push(_frame(0))
        queue.close()
        assert queue.try_pop().index == 0  # buffered frame still delivered
        with pytest.raises(ViewerDisconnectedError):
            queue.try_pop()
        with pytest.raises(ViewerDisconnectedError):
            queue.pop(timeout=0.1)
        assert not queue.push(_frame(1))

    def test_on_frame_fires_outside_lock_on_push_and_close(self):
        calls = []
        queue = ViewerQueue(0, LAYOUTS[0], on_frame=lambda: calls.append(1))
        queue.push(_frame(0))
        queue.close()
        queue.close()  # idempotent: no second close callback
        assert len(calls) == 2


class TestHub:
    @pytest.mark.parametrize("quality", [0, 101, -5])
    def test_quality_outside_1_to_100_rejected(self, quality):
        # At construction, with scale_table's message: not at the first encode.
        with pytest.raises(ValueError, match=r"quality must be in \[1, 100\]"):
            FrameHub(NX, NY, m=M, quality=quality)

    @pytest.mark.parametrize("quality", [1, 100])
    def test_quality_bounds_accepted(self, quality):
        FrameHub(NX, NY, m=M, quality=quality).close()

    def test_publish_fans_out_to_every_layout(self):
        source = SyntheticSource(NX, NY, m=M)
        hub = FrameHub(NX, NY, m=M)
        queues = [hub.register(layout) for layout in LAYOUTS for _ in range(3)]
        assert hub.viewer_count() == 9
        served = hub.publish(0, source.slabs(0))
        assert served == len(LAYOUTS)  # one render+encode per distinct layout
        for queue in queues:
            frame = queue.try_pop()
            assert frame.index == 0
            assert frame.jpeg[:2] == b"\xff\xd8"
            h, w = queue.layout.roi.np_shape()
            step = queue.layout.step
            assert frame.shape == (-(-h // step), -(-w // step))  # mip subsampling rounds up
        hub.close()

    def test_mapping_cache_shared_across_viewers_and_frames(self):
        source = SyntheticSource(NX, NY, m=M)
        hub = FrameHub(NX, NY, m=M)
        for layout in LAYOUTS:
            for _ in range(4):
                hub.register(layout)
        for index, slabs in source.frames(5):
            hub.publish(index, slabs)
        stats = hub.mapping_cache.stats()
        assert stats["entries"] == len(LAYOUTS)
        assert stats["misses"] == len(LAYOUTS)  # built exactly once each
        assert stats["hits"] == 5 * len(LAYOUTS) - len(LAYOUTS)
        # Publishing exports the staging high-water marks as gauges, so the
        # overload controller and /stats can see memory pressure.
        gauges = hub.metrics.counters
        assert gauges["serve.pool_peak_bytes"] >= gauges["serve.pool_bytes"]
        assert gauges["serve.cache_peak_bytes"] >= gauges["serve.cache_bytes"] > 0
        hub.close()

    def test_view_matches_direct_single_consumer_redistribution(self):
        source = SyntheticSource(NX, NY, m=M)
        hub = FrameHub(NX, NY, m=M)
        slabs = source.slabs(7)
        comm = world_communicators(1)[0]
        red = Redistributor(comm, ndims=2, dtype=np.float32)
        for layout in LAYOUTS:
            got = hub.view(layout, slabs)
            mapping = red.new_mapping(own=hub.producer_boxes, need=layout.roi)
            want = red.gather_need(slabs, mapping=mapping)
            want = want[:: layout.step, :: layout.step]
            np.testing.assert_array_equal(got, want)
        hub.close()

    def test_slow_viewer_converges_to_latest_frame(self):
        source = SyntheticSource(NX, NY, m=M)
        hub = FrameHub(NX, NY, m=M, queue_capacity=2)
        queue = hub.register(LAYOUTS[0])
        for index, slabs in source.frames(6):
            hub.publish(index, slabs)
        seen = []
        while True:
            frame = queue.try_pop()
            if frame is None:
                break
            seen.append(frame.index)
        assert seen == [4, 5]  # intermediates coalesced, final frame kept
        assert queue.coalesced == 4
        hub.close()

    def test_dead_viewer_is_unregistered_on_publish(self):
        source = SyntheticSource(NX, NY, m=M)
        hub = FrameHub(NX, NY, m=M)
        queue = hub.register(LAYOUTS[0])
        survivor = hub.register(LAYOUTS[0])
        queue.close()  # transport went away
        hub.publish(0, source.slabs(0))
        assert hub.viewer_count() == 1
        assert survivor.try_pop().index == 0
        hub.close()

    def test_register_after_close_raises(self):
        hub = FrameHub(NX, NY, m=M)
        hub.close()
        with pytest.raises(ViewerDisconnectedError):
            hub.register(LAYOUTS[0])

    def test_wrong_slab_count_raises(self):
        source = SyntheticSource(NX, NY, m=M)
        hub = FrameHub(NX, NY, m=M)
        with pytest.raises(ValueError, match="producer slabs"):
            hub.publish(0, source.slabs(0)[:-1])
        hub.close()

    def test_layout_churn_keeps_cache_bounded(self):
        source = SyntheticSource(NX, NY, m=M)
        hub = FrameHub(NX, NY, m=M, max_layouts=4)
        slabs = source.slabs(0)
        for i in range(12):
            layout = ConsumerLayout.make(NX, NY, x=i, w=8, h=8)
            hub.view(layout, slabs)
        stats = hub.mapping_cache.stats()
        assert stats["entries"] == 4
        assert stats["evictions"] == 8
        hub.close()
