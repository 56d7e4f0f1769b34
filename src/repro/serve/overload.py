"""SLO-driven overload control: admission errors and a degradation ladder.

Under overload the hub used to degrade *by accident* — per-viewer queues
coalesce, sockets stall, and nothing else gives.  This module makes
overload a policy-governed regime:

* **Admission errors** (:class:`AdmissionError` and friends) are the typed
  refusals the hub and edge raise when capacity limits are hit; each
  carries the HTTP status (429/503) and a ``Retry-After`` hint so the edge
  can answer instead of silently dropping connections.

* **The ladder** (:class:`OverloadController`): an SLO monitor consuming
  :class:`~repro.obs.metrics.MetricsRegistry` EWMAs — publish latency,
  encode time, per-viewer queue drop rate, mapping-cache pool bytes — and
  walking a fixed degradation ladder with hysteresis::

      normal -> quality -> mip -> fps -> shed

  Each rung trades output fidelity for headroom: lower JPEG quality,
  force coarser mip levels on *new* registrations, cap the frame rate
  (publish every k-th frame), and finally shed the newest/slowest viewers
  (typed :class:`~repro.serve.hub.ViewerShedError`).  Every transition is
  recorded as a ``serve.degrade`` trace span and kept for ``/stats``.

The controller never touches sockets or queues itself — the hub observes
into it once per publish and applies the knobs it exposes (``quality()``,
``min_mip``, ``frame_stride``, ``take_shed_request()``): the decision is
data, the enforcement lives where the resources live.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..obs.tracer import TRACER

__all__ = [
    "AdmissionError",
    "HubSaturatedError",
    "LADDER",
    "LayoutSaturatedError",
    "OverloadController",
    "SloPolicy",
]

#: Ladder rungs, mildest first.  Index == level; 0 is healthy.
LADDER = ("normal", "quality", "mip", "fps", "shed")


class AdmissionError(Exception):
    """Typed admission refusal: the server is protecting itself, not
    failing.  ``status`` is the HTTP status the edge answers with and
    ``retry_after_s`` the ``Retry-After`` hint."""

    status = 503

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class HubSaturatedError(AdmissionError):
    """The hub-wide viewer cap is reached (503 Service Unavailable)."""

    status = 503


class LayoutSaturatedError(AdmissionError):
    """The per-layout viewer cap is reached (429 Too Many Requests) —
    a single hot layout must not starve every other consumer."""

    status = 429


@dataclass(frozen=True)
class SloPolicy:
    """Service-level objectives and ladder dynamics.

    ``publish_slo_s`` / ``encode_slo_s``
        EWMA ceilings on seconds spent publishing one frame (all layouts)
        and JPEG-encoding it.  Above either, the producer thread is the
        bottleneck and fidelity must give.
    ``drop_rate_slo``
        EWMA ceiling on the per-publish queue drop rate —
        coalesced / (coalesced + delivered).  Coalescing is the *normal*
        backpressure mechanism, so this trips only when most pushes drop.
    ``pool_budget_bytes``
        Optional ceiling on the mapping-cache staging-pool footprint.
    ``breach_steps`` / ``clear_steps``
        Hysteresis: consecutive breached observations required to step
        *down* the ladder (degrade), and consecutive healthy ones to step
        back *up* (recover).  A single noisy frame never moves the ladder.
    ``degraded_quality`` / ``forced_mip`` / ``frame_stride``
        What the quality, mip, and fps rungs apply.
    ``shed_fraction`` / ``min_shed``
        How many viewers one shed action removes.
    ``stall_timeout_s``
        Producer-stall circuit breaker: no publish for this long flips
        ``/readyz`` and serves last-good frames with ``X-Frame-Stale``.
    """

    publish_slo_s: float = 0.25
    encode_slo_s: float = 0.15
    drop_rate_slo: float = 0.9
    pool_budget_bytes: Optional[int] = None
    ewma_alpha: float = 0.5
    breach_steps: int = 2
    clear_steps: int = 3
    degraded_quality: int = 40
    forced_mip: int = 1
    frame_stride: int = 2
    shed_fraction: float = 0.25
    min_shed: int = 1
    stall_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.publish_slo_s <= 0 or self.encode_slo_s <= 0:
            raise ValueError("publish/encode SLOs must be positive seconds")
        if not 0 < self.drop_rate_slo <= 1:
            raise ValueError(f"drop_rate_slo must be in (0, 1], got {self.drop_rate_slo}")
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}")
        if self.breach_steps < 1 or self.clear_steps < 1:
            raise ValueError("breach_steps and clear_steps must be >= 1")
        if not 1 <= self.degraded_quality <= 100:
            raise ValueError(f"degraded_quality must be in [1, 100], got {self.degraded_quality}")
        if self.forced_mip < 0:
            raise ValueError(f"forced_mip must be >= 0, got {self.forced_mip}")
        if self.frame_stride < 1:
            raise ValueError(f"frame_stride must be >= 1, got {self.frame_stride}")
        if not 0 < self.shed_fraction <= 1:
            raise ValueError(f"shed_fraction must be in (0, 1], got {self.shed_fraction}")
        if self.min_shed < 1:
            raise ValueError(f"min_shed must be >= 1, got {self.min_shed}")
        if self.stall_timeout_s <= 0:
            raise ValueError("stall_timeout_s must be positive")


class OverloadController:
    """EWMA SLO monitor walking the degradation ladder with hysteresis.

    Not thread-safe by itself: ``observe*`` and ``take_shed_request`` run
    on the hub's single producer thread; the read-only knob properties are
    safe to read from anywhere (plain attribute loads).
    """

    def __init__(self, policy: Optional[SloPolicy] = None) -> None:
        self.policy = policy or SloPolicy()
        self.level = 0
        self.epochs = 0
        self.publish_ewma: Optional[float] = None
        self.encode_ewma: Optional[float] = None
        self.drop_ewma: Optional[float] = None
        self.pool_bytes = 0
        self.shed_total = 0
        #: transition records, oldest first: dicts with from/to/direction.
        self.transitions: list[dict] = []
        self._breach_streak = 0
        self._clear_streak = 0
        self._shed_pending = False
        self._active_reasons: tuple[str, ...] = ()
        # (count, total) snapshots for delta-reads of cumulative histograms
        self._seen: dict[str, tuple[int, float]] = {}
        self._seen_counters: dict[str, float] = {}

    # -- signal intake -------------------------------------------------------

    def observe_registry(self, registry: Any, pool_bytes: Optional[int] = None) -> int:
        """Fold one publish epoch's signals out of a ``MetricsRegistry``.

        Histograms are cumulative, so publish/encode latencies are read as
        deltas since the previous call (this epoch's mean seconds); drop
        rate comes from the ``serve.frames_coalesced`` /
        ``serve.frames_delivered`` counter deltas; pool bytes from the
        ``serve.pool_bytes`` gauge unless passed explicitly.  Returns the
        (possibly updated) ladder level.
        """
        publish_s = self._hist_delta(registry, "serve.publish")
        encode_s = self._hist_delta(registry, "serve.encode")
        coalesced = self._counter_delta(registry, "serve.frames_coalesced")
        delivered = self._counter_delta(registry, "serve.frames_delivered")
        drop_rate = None
        if coalesced + delivered > 0:
            drop_rate = coalesced / (coalesced + delivered)
        if pool_bytes is None:
            pool_bytes = int(registry.get("serve.pool_bytes"))
        return self.observe(
            publish_s=publish_s,
            encode_s=encode_s,
            drop_rate=drop_rate,
            pool_bytes=pool_bytes,
        )

    def _hist_delta(self, registry: Any, name: str) -> Optional[float]:
        hist = registry.histograms.get(name)
        if hist is None:
            return None
        seen_count, seen_total = self._seen.get(name, (0, 0.0))
        if hist.count <= seen_count:
            return None
        delta = (hist.total - seen_total) / (hist.count - seen_count)
        self._seen[name] = (hist.count, hist.total)
        return delta

    def _counter_delta(self, registry: Any, name: str) -> float:
        value = float(registry.get(name))
        delta = value - self._seen_counters.get(name, 0.0)
        self._seen_counters[name] = value
        return max(0.0, delta)

    def observe(
        self,
        publish_s: Optional[float] = None,
        encode_s: Optional[float] = None,
        drop_rate: Optional[float] = None,
        pool_bytes: Optional[int] = None,
    ) -> int:
        """Fold one epoch's raw signals in and move the ladder if the
        hysteresis allows; returns the current level."""
        policy = self.policy
        self.epochs += 1
        if publish_s is not None:
            self.publish_ewma = self._ewma(self.publish_ewma, publish_s)
        if encode_s is not None:
            self.encode_ewma = self._ewma(self.encode_ewma, encode_s)
        if drop_rate is not None:
            self.drop_ewma = self._ewma(self.drop_ewma, drop_rate)
        if pool_bytes is not None:
            self.pool_bytes = int(pool_bytes)

        reasons = []
        if self.publish_ewma is not None and self.publish_ewma > policy.publish_slo_s:
            reasons.append("publish_latency")
        if self.encode_ewma is not None and self.encode_ewma > policy.encode_slo_s:
            reasons.append("encode_time")
        if self.drop_ewma is not None and self.drop_ewma > policy.drop_rate_slo:
            reasons.append("queue_drops")
        if (
            policy.pool_budget_bytes is not None
            and self.pool_bytes > policy.pool_budget_bytes
        ):
            reasons.append("mapping_pool")
        self._active_reasons = tuple(reasons)

        if reasons:
            self._clear_streak = 0
            self._breach_streak += 1
            if self._breach_streak >= policy.breach_steps:
                self._breach_streak = 0
                if self.level < len(LADDER) - 1:
                    self._transition(self.level + 1, "degrade", reasons)
                if LADDER[self.level] == "shed":
                    self._shed_pending = True
        else:
            self._breach_streak = 0
            self._clear_streak += 1
            if self._clear_streak >= policy.clear_steps and self.level > 0:
                self._clear_streak = 0
                self._transition(self.level - 1, "recover", ["slo_met"])
        return self.level

    def _ewma(self, current: Optional[float], value: float) -> float:
        if current is None:
            return float(value)
        alpha = self.policy.ewma_alpha
        return alpha * float(value) + (1 - alpha) * current

    def _transition(self, to_level: int, direction: str, reasons: list) -> None:
        record = {
            "epoch": self.epochs,
            "from": self.level,
            "to": to_level,
            "from_name": LADDER[self.level],
            "to_name": LADDER[to_level],
            "direction": direction,
            "reason": ",".join(reasons),
        }
        self.transitions.append(record)
        with TRACER.span(
            "serve.degrade",
            from_level=record["from_name"],
            to_level=record["to_name"],
            direction=direction,
            reason=record["reason"],
        ):
            pass
        self.level = to_level

    # -- knobs the hub applies -----------------------------------------------

    def quality(self, default: int) -> int:
        """JPEG quality to encode with (the quality rung lowers it)."""
        if self.level >= LADDER.index("quality"):
            return min(default, self.policy.degraded_quality)
        return default

    @property
    def min_mip(self) -> int:
        """Coarsest-acceptable mip floor applied to *new* registrations."""
        if self.level >= LADDER.index("mip"):
            return self.policy.forced_mip
        return 0

    @property
    def frame_stride(self) -> int:
        """Publish every k-th frame when the fps rung is active."""
        if self.level >= LADDER.index("fps"):
            return self.policy.frame_stride
        return 1

    def take_shed_request(self, viewer_count: int) -> int:
        """Viewers the hub should shed now (0 when no shed is pending);
        consuming the request arms the next one only after another full
        breach streak at the shed rung."""
        if not self._shed_pending or viewer_count <= 0:
            return 0
        self._shed_pending = False
        policy = self.policy
        return max(policy.min_shed, int(viewer_count * policy.shed_fraction))

    def note_shed(self, count: int) -> None:
        """Record how many viewers the hub actually shed."""
        self.shed_total += int(count)

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict:
        return {
            "level": self.level,
            "level_name": LADDER[self.level],
            "epochs": self.epochs,
            "publish_ewma_s": self.publish_ewma,
            "encode_ewma_s": self.encode_ewma,
            "drop_rate_ewma": self.drop_ewma,
            "pool_bytes": self.pool_bytes,
            "active_reasons": list(self._active_reasons),
            "shed_total": self.shed_total,
            "transitions": list(self.transitions),
        }
