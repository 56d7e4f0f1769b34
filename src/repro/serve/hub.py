"""The frame-distribution hub: one producer, many concurrent consumers.

The analysis side of the in-transit pipeline ends at one root writing
JPEGs; the hub turns that root into a service.  Producer slabs come in
once per frame (``publish``); every registered viewer's layout — ROI crop,
mip level, consumer rank count — is satisfied by its own set of
:meth:`~repro.core.api.Redistributor.new_mapping` handles over those same
slabs, built once per *distinct* layout through a bounded
:class:`~repro.core.MappingCache` and reused for every viewer and frame
that shares it.

Delivery is per-viewer buffered with coalescing: a slow client's queue
keeps only the newest frames (oldest are dropped, never blocking the
producer), so every viewer always converges to the latest frame — the
"ship latest, drop intermediates" contract of live MJPEG streaming.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..core.api import Redistributor
from ..core.box import Box
from ..core.mapcache import MappingCache
from ..jpeg.encoder import encode_rgb
from ..lbm.decompose import slab_box
from ..mpisim.executor import world_communicators
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import TRACER
from ..utils.arrays import StagingPool
from ..viz.colormaps import BLUE_WHITE_RED
from ..viz.image import render_scalar_field
from .layout import ConsumerLayout
from .overload import HubSaturatedError, LayoutSaturatedError, OverloadController

__all__ = [
    "FrameHub",
    "ServedFrame",
    "ViewerDisconnectedError",
    "ViewerQueue",
    "ViewerShedError",
]


class ViewerDisconnectedError(Exception):
    """Typed signal that a viewer's queue was closed (client went away)."""


class ViewerShedError(ViewerDisconnectedError):
    """The hub shed this viewer *by policy* (overload ladder) — the client
    did nothing wrong and should retry later."""


@dataclass(frozen=True)
class ServedFrame:
    """One encoded frame as delivered to a viewer."""

    index: int
    layout_key: tuple
    jpeg: bytes
    shape: tuple[int, int]  # (h, w) of the encoded image
    published_at: float = 0.0  # perf_counter stamp at encode time


class ViewerQueue:
    """Per-viewer backpressure buffer with latest-wins coalescing.

    The producer pushes; the viewer's transport pops.  The queue holds at
    most ``capacity`` frames: pushing into a full queue drops the *oldest*
    entry, so a slow client skips intermediates and always receives the
    newest frame the moment it catches up.  ``close()`` (either side) makes
    further pops raise :class:`ViewerDisconnectedError` after the buffer
    drains, and further pushes no-ops.
    """

    def __init__(
        self,
        viewer_id: int,
        layout: ConsumerLayout,
        capacity: int = 2,
        on_frame: Optional[Callable[[], None]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.viewer_id = viewer_id
        self.layout = layout
        self.capacity = capacity
        #: transport wake-up hook (the async edge bridges it onto its loop);
        #: called outside the queue lock after every push and on close.
        self.on_frame = on_frame
        self._frames: deque[ServedFrame] = deque()
        self._cond = threading.Condition()
        self.closed = False
        self.close_reason: Optional[str] = None  # "shed" -> ViewerShedError
        self.coalesced = 0  # frames dropped because this viewer was slow
        self.delivered = 0  # frames handed to the transport
        self.last_index: Optional[int] = None  # newest frame index ever queued

    def push(self, frame: ServedFrame) -> bool:
        """Producer side; returns False when the viewer is gone."""
        with self._cond:
            if self.closed:
                return False
            if len(self._frames) >= self.capacity:
                self._frames.popleft()
                self.coalesced += 1
            self._frames.append(frame)
            self.last_index = frame.index
            self._cond.notify_all()
        if self.on_frame is not None:
            self.on_frame()
        return True

    def _raise_closed(self) -> None:
        if self.close_reason == "shed":
            raise ViewerShedError(
                f"viewer {self.viewer_id} was shed by overload policy"
            )
        raise ViewerDisconnectedError(f"viewer {self.viewer_id} is closed")

    def try_pop(self) -> Optional[ServedFrame]:
        """Viewer side, non-blocking; None when nothing is buffered."""
        with self._cond:
            if self._frames:
                self.delivered += 1
                return self._frames.popleft()
            if self.closed:
                self._raise_closed()
            return None

    def pop(self, timeout: Optional[float] = None) -> Optional[ServedFrame]:
        """Viewer side, blocking; None on timeout, typed error when closed."""
        with self._cond:
            if not self._cond.wait_for(
                lambda: self._frames or self.closed, timeout=timeout
            ):
                return None
            if self._frames:
                self.delivered += 1
                return self._frames.popleft()
            self._raise_closed()

    def close(self, reason: Optional[str] = None) -> None:
        with self._cond:
            if self.closed:
                return
            self.closed = True
            self.close_reason = reason
            self._cond.notify_all()
        if self.on_frame is not None:
            self.on_frame()


class FrameHub:
    """Fans one producer's frames out to N independently-mapped consumers.

    ``register`` / ``unregister`` are thread-safe (the async edge calls
    them from its event loop while the producer publishes); ``publish``
    itself runs from a single producer thread — it owns the hub's
    :class:`~repro.core.api.Redistributor`, whose exchanges run on a
    private single-rank world (pure local copies through the exchange
    engine, no peer ranks needed).
    """

    def __init__(
        self,
        nx: int,
        ny: int,
        m: int = 1,
        producer_boxes: Optional[Sequence[Box]] = None,
        *,
        quality: int = 80,
        max_layouts: int = 64,
        queue_capacity: int = 2,
        backend: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        max_viewers: Optional[int] = None,
        max_viewers_per_layout: Optional[int] = None,
        overload: Optional[OverloadController] = None,
        retry_after_s: float = 1.0,
    ) -> None:
        if not 1 <= quality <= 100:
            raise ValueError(f"quality must be in [1, 100], got {quality}")
        self.nx, self.ny = int(nx), int(ny)
        if producer_boxes is None:
            producer_boxes = [slab_box(nx, ny, m, rank) for rank in range(m)]
        self.producer_boxes = list(producer_boxes)
        comm = world_communicators(1)[0]
        kwargs = {} if backend is None else {"backend": backend}
        self.red = Redistributor(comm, ndims=2, dtype=np.float32, **kwargs)
        self.mapping_cache = MappingCache(max_entries=max_layouts)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.quality = int(quality)
        self.queue_capacity = int(queue_capacity)
        self.max_viewers = max_viewers
        self.max_viewers_per_layout = max_viewers_per_layout
        self.overload = overload
        self.retry_after_s = float(retry_after_s)
        self._pool = StagingPool()  # assembled-ROI scratch, keyed by shape
        self._lock = threading.Lock()
        self._next_viewer = 0
        #: viewer_id -> queue; layouts are recovered from the queues
        self._viewers: dict[int, ViewerQueue] = {}
        #: layout key -> newest ServedFrame (the stale-serving circuit breaker)
        self._last_good: dict[tuple, ServedFrame] = {}
        self.frames_published = 0
        self.frames_ratelimited = 0
        self._last_publish_mono: Optional[float] = None
        self.draining = False
        self.closed = False

    # -- viewer lifecycle ----------------------------------------------------

    def _admit_layout(self, layout: ConsumerLayout) -> ConsumerLayout:
        """Apply the ladder's mip floor to a new registration."""
        if self.overload is None:
            return layout
        floor = self.overload.min_mip
        if floor <= layout.mip:
            return layout
        x0, y0 = layout.roi.offset
        w, h = layout.roi.dims
        self.metrics.incr("serve.mip_forced")
        return ConsumerLayout.make(
            self.nx, self.ny, x=x0, y=y0, w=w, h=h, mip=floor, parts=layout.parts
        )

    def register(
        self,
        layout: ConsumerLayout,
        on_frame: Optional[Callable[[], None]] = None,
    ) -> ViewerQueue:
        """Attach a viewer; returns its private frame queue.

        Admission control lives here: the hub-wide viewer cap refuses with
        :class:`~repro.serve.overload.HubSaturatedError` (503) and the
        per-layout cap with
        :class:`~repro.serve.overload.LayoutSaturatedError` (429), both
        carrying a ``Retry-After`` hint.  When the overload ladder sits at
        the mip rung or below, new registrations are forced to a coarser
        mip level before the cache key is computed.
        """
        if self.closed:
            raise ViewerDisconnectedError("hub is closed")
        layout = self._admit_layout(layout)
        key = layout.canonical_key()
        with self._lock:
            if (
                self.max_viewers is not None
                and len(self._viewers) >= self.max_viewers
            ):
                self.metrics.incr("serve.admission_rejected")
                raise HubSaturatedError(
                    f"hub viewer cap reached ({self.max_viewers})",
                    retry_after_s=self.retry_after_s,
                )
            if self.max_viewers_per_layout is not None:
                same = sum(
                    1
                    for q in self._viewers.values()
                    if q.layout.canonical_key() == key
                )
                if same >= self.max_viewers_per_layout:
                    self.metrics.incr("serve.admission_rejected")
                    raise LayoutSaturatedError(
                        f"layout viewer cap reached "
                        f"({self.max_viewers_per_layout} for {layout.describe()})",
                        retry_after_s=self.retry_after_s,
                    )
            viewer_id = self._next_viewer
            self._next_viewer += 1
            queue = ViewerQueue(
                viewer_id, layout, capacity=self.queue_capacity, on_frame=on_frame
            )
            self._viewers[viewer_id] = queue
        self.metrics.incr("serve.viewers_connected")
        if TRACER.enabled:
            with TRACER.span(
                "serve.viewer_register", viewer=viewer_id, layout=layout.describe()
            ):
                pass
        return queue

    def unregister(self, queue: ViewerQueue) -> None:
        """Detach a viewer (idempotent); its queue closes immediately."""
        queue.close()
        with self._lock:
            removed = self._viewers.pop(queue.viewer_id, None)
        if removed is not None:
            self.metrics.incr("serve.viewers_disconnected")
            self.metrics.incr("serve.frames_coalesced", queue.coalesced)

    def viewer_count(self) -> int:
        with self._lock:
            return len(self._viewers)

    def shed_viewers(self, count: int) -> int:
        """Shed up to ``count`` viewers by policy — newest/slowest first
        (most coalesced frames, then highest viewer id).  Their queues
        close typed as :class:`ViewerShedError`; returns how many went."""
        if count <= 0:
            return 0
        with self._lock:
            victims = sorted(
                self._viewers.values(),
                key=lambda q: (q.coalesced, q.viewer_id),
                reverse=True,
            )[:count]
            for queue in victims:
                self._viewers.pop(queue.viewer_id, None)
        for queue in victims:
            queue.close(reason="shed")
            self.metrics.incr("serve.viewers_shed")
            if TRACER.enabled:
                with TRACER.span(
                    "serve.shed", viewer=queue.viewer_id,
                    coalesced=queue.coalesced,
                ):
                    pass
        if self.overload is not None and victims:
            self.overload.note_shed(len(victims))
        return len(victims)

    # -- liveness / readiness ------------------------------------------------

    def stalled(self) -> bool:
        """Producer-stall circuit breaker: True once the producer has
        published at least one frame and then gone quiet for longer than
        the SLO policy's ``stall_timeout_s``."""
        if self._last_publish_mono is None:
            return False
        timeout = (
            self.overload.policy.stall_timeout_s
            if self.overload is not None
            else 5.0
        )
        return time.monotonic() - self._last_publish_mono > timeout

    def ready(self) -> tuple[bool, str]:
        """(ready, reason) for the edge's ``/readyz``."""
        if self.closed:
            return False, "closed"
        if self.draining:
            return False, "draining"
        if self.stalled():
            return False, "producer-stalled"
        return True, "ready"

    def last_frame(self, layout: ConsumerLayout) -> Optional[ServedFrame]:
        """The newest frame ever encoded for ``layout`` (stale serving)."""
        return self._last_good.get(layout.canonical_key())

    def drain(self) -> None:
        """Graceful drain: close every viewer queue (streams end cleanly)
        and refuse readiness, but keep the hub itself alive so ``/stats``
        and ``/healthz`` still answer during shutdown."""
        self.draining = True
        with self._lock:
            viewers = list(self._viewers.values())
            self._viewers.clear()
        for queue in viewers:
            queue.close(reason="drain")
            self.metrics.incr("serve.viewers_disconnected")

    # -- frame path ----------------------------------------------------------

    def _mappings_for(self, layout: ConsumerLayout):
        key = layout.canonical_key()
        return self.mapping_cache.get(
            key,
            lambda: [
                self.red.new_mapping(own=self.producer_boxes, need=part)
                for part in layout.part_boxes()
            ],
        )

    def view(
        self, layout: ConsumerLayout, slabs: Sequence[np.ndarray]
    ) -> np.ndarray:
        """The float field a consumer with ``layout`` receives (a copy).

        The correctness oracle: per-part DDR exchanges assembled into the
        ROI, then mip-subsampled — bitwise what :meth:`publish` renders and
        what a direct single-consumer redistribution of the same frame
        produces.
        """
        return self._assemble(layout, slabs).copy()

    def _assemble(
        self, layout: ConsumerLayout, slabs: Sequence[np.ndarray]
    ) -> np.ndarray:
        """ROI field for ``layout`` (a view into hub scratch — valid until
        the next ``_assemble`` call with the same ROI shape)."""
        mappings = self._mappings_for(layout)
        roi = self._pool.take(layout.roi.np_shape(), np.float32)
        for mapping, part in zip(mappings, layout.part_boxes()):
            part_out = self.red.gather_need(slabs, mapping=mapping, reuse_out=True)
            r0, c0 = part.np_starts_within(layout.roi)
            h, w = part.np_shape()
            roi[r0 : r0 + h, c0 : c0 + w] = part_out
        step = layout.step
        return roi[::step, ::step]

    def publish(
        self, frame_index: int, slabs: Sequence[np.ndarray], force: bool = False
    ) -> int:
        """Redistribute, render, and encode one producer frame for every
        distinct registered layout, then fan the JPEGs out to each viewer's
        queue.  Returns the number of distinct layouts served.

        When the overload ladder sits at the fps rung, frames off the
        stride are skipped (the producer stays live for the circuit
        breaker, but no work is done); ``force=True`` bypasses the stride
        so a driver can guarantee its *final* frame goes out.  After the
        fan-out the controller observes this epoch's SLO signals and any
        pending shed request is applied.
        """
        if len(slabs) != len(self.producer_boxes):
            raise ValueError(
                f"expected {len(self.producer_boxes)} producer slabs, got {len(slabs)}"
            )
        controller = self.overload
        self._last_publish_mono = time.monotonic()
        if controller is not None and not force:
            stride = controller.frame_stride
            if stride > 1 and frame_index % stride:
                self.frames_ratelimited += 1
                self.metrics.incr("serve.frames_ratelimited")
                return 0
        quality = (
            controller.quality(self.quality) if controller is not None
            else self.quality
        )
        started = time.perf_counter()
        encode_s = 0.0
        with self._lock:
            queues = list(self._viewers.values())
        by_layout: dict[tuple, list[ViewerQueue]] = {}
        layouts: dict[tuple, ConsumerLayout] = {}
        for queue in queues:
            key = queue.layout.canonical_key()
            by_layout.setdefault(key, []).append(queue)
            layouts.setdefault(key, queue.layout)
        for key, audience in by_layout.items():
            layout = layouts[key]
            with TRACER.span(
                "serve.publish", frame=frame_index, layout=layout.describe(),
                viewers=len(audience),
            ):
                field = self._assemble(layout, slabs)
                encode_started = time.perf_counter()
                with TRACER.span("serve.encode", frame=frame_index):
                    rgb = render_scalar_field(field, BLUE_WHITE_RED, symmetric=True)
                    blob = encode_rgb(rgb, quality=quality)
                encode_s += time.perf_counter() - encode_started
            frame = ServedFrame(
                frame_index, key, blob, field.shape,
                published_at=time.perf_counter(),
            )
            self._last_good[key] = frame
            gone = []
            for queue in audience:
                before = queue.coalesced
                if queue.push(frame):
                    self.metrics.incr("serve.frames_delivered")
                    if queue.coalesced > before:
                        self.metrics.incr("serve.frames_coalesced")
                else:
                    gone.append(queue)
            for queue in gone:
                self.unregister(queue)
        self.frames_published += 1
        self.metrics.incr("serve.frames_published")
        elapsed = time.perf_counter() - started
        self.metrics.observe("serve.publish", elapsed)
        if encode_s:
            self.metrics.observe("serve.encode", encode_s)
        cache_stats = self.mapping_cache.stats()
        self.metrics.gauge("serve.pool_bytes", cache_stats["pool_bytes"])
        self.metrics.gauge("serve.pool_peak_bytes", cache_stats["pool_peak_bytes"])
        self.metrics.gauge("serve.cache_bytes", cache_stats["cache_bytes"])
        self.metrics.gauge("serve.cache_peak_bytes", cache_stats["cache_peak_bytes"])
        if controller is not None:
            controller.observe_registry(self.metrics)
            self.metrics.gauge("serve.degrade_level", controller.level)
            shed = controller.take_shed_request(self.viewer_count())
            if shed:
                self.shed_viewers(shed)
        return len(by_layout)

    # -- reporting / shutdown ------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            viewers = list(self._viewers.values())
        ready, reason = self.ready()
        return {
            "viewers": len(viewers),
            "frames_published": self.frames_published,
            "frames_ratelimited": self.frames_ratelimited,
            "coalesced_in_flight": sum(q.coalesced for q in viewers),
            "mapping_cache": self.mapping_cache.stats(),
            "counters": self.metrics.snapshot(),
            "ready": ready,
            "ready_reason": reason,
            "admission": {
                "max_viewers": self.max_viewers,
                "max_viewers_per_layout": self.max_viewers_per_layout,
                "rejected": self.metrics.get("serve.admission_rejected"),
            },
            "overload": (
                self.overload.stats() if self.overload is not None else None
            ),
        }

    def close(self) -> None:
        """Close every viewer queue and drop all cached mappings."""
        self.closed = True
        with self._lock:
            viewers = list(self._viewers.values())
            self._viewers.clear()
        for queue in viewers:
            queue.close()
        self.mapping_cache.clear()
        self._pool.clear()
        self._last_good.clear()
