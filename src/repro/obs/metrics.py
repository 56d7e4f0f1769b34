"""Metrics: the one counter type, plus histograms folded from trace spans.

:class:`MetricsRegistry` holds thread-safe counters (:meth:`~MetricsRegistry.incr`),
gauges (:meth:`~MetricsRegistry.gauge`) and per-name duration histograms,
kept both per rank and aggregated across ranks.  Subsystems write to an
instance directly: the fault layer's ``FAULTS.stats``, the resilience
layer's ``RESILIENCE_STATS`` and each serving hub's ``metrics`` are
registries.  :meth:`~MetricsRegistry.ingest` folds closed
:class:`~repro.obs.tracer.Tracer` spans in, and :meth:`~MetricsRegistry.summary`
prints everything as one table.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .tracer import SpanRecord

__all__ = ["Histogram", "MetricsRegistry"]

#: Histogram bucket upper bounds, in seconds (log-spaced; +inf overflow).
BUCKET_BOUNDS_S = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


@dataclass
class Histogram:
    """Streaming histogram over seconds: count/sum/min/max + log buckets."""

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    buckets: list[int] = field(
        default_factory=lambda: [0] * (len(BUCKET_BOUNDS_S) + 1)
    )

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for index, bound in enumerate(BUCKET_BOUNDS_S):
            if value <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Thread-safe counters + named histograms, per rank and aggregate."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: dict[str, float] = {}
        #: aggregate across all ranks
        self.histograms: dict[str, Histogram] = {}
        #: rank -> name -> Histogram (rank ``None`` = driver thread)
        self.by_rank: dict[Optional[int], dict[str, Histogram]] = {}

    # -- primitive sinks -----------------------------------------------------

    def incr(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set a counter to an instantaneous value (gauge semantics: the
        latest observation wins — pool bytes, queue depth, ladder level)."""
        with self._lock:
            self.counters[name] = float(value)

    def get(self, name: str) -> float:
        """A counter's current value; 0 if it was never touched."""
        with self._lock:
            return self.counters.get(name, 0)

    def snapshot(self) -> dict[str, float]:
        """A plain-dict copy of every counter and gauge."""
        with self._lock:
            return dict(self.counters)

    def observe(self, name: str, seconds: float, rank: Optional[int] = None) -> None:
        with self._lock:
            self._histogram(self.histograms, name).observe(seconds)
            self._histogram(self.by_rank.setdefault(rank, {}), name).observe(seconds)

    @staticmethod
    def _histogram(table: dict[str, Histogram], name: str) -> Histogram:
        hist = table.get(name)
        if hist is None:
            hist = table[name] = Histogram()
        return hist

    # -- producers -----------------------------------------------------------

    def ingest(self, records: Iterable[SpanRecord]) -> None:
        """Fold closed spans into duration histograms and byte counters."""
        for record in records:
            self.observe(record.name, record.dur_us / 1e6, rank=record.rank)
            nbytes = record.attrs.get("nbytes")
            if nbytes is not None:
                self.incr(f"{record.name}.bytes", int(nbytes))

    # -- reporting -----------------------------------------------------------

    def summary(self, per_rank: bool = False) -> str:
        """Human-readable table: one histogram row per span name."""
        lines = []
        if self.histograms:
            lines.append(
                f"{'span':<24} {'count':>7} {'total_s':>10} {'mean_ms':>10} "
                f"{'min_ms':>10} {'max_ms':>10}"
            )
            for name in sorted(self.histograms):
                lines.append(self._row(name, self.histograms[name]))
        if per_rank:
            for rank in sorted(self.by_rank, key=lambda r: (r is None, r)):
                label = "driver" if rank is None else f"rank {rank}"
                lines.append(f"-- {label}")
                for name in sorted(self.by_rank[rank]):
                    lines.append(self._row(name, self.by_rank[rank][name]))
        if self.counters:
            lines.append("counters:")
            for name in sorted(self.counters):
                lines.append(f"  {name:<38} {self.counters[name]:>14.0f}")
        return "\n".join(lines)

    @staticmethod
    def _row(name: str, hist: Histogram) -> str:
        return (
            f"{name:<24} {hist.count:>7d} {hist.total:>10.4f} {hist.mean * 1e3:>10.3f} "
            f"{hist.min * 1e3:>10.3f} {hist.max * 1e3:>10.3f}"
        )
