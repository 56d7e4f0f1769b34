"""Observability: per-rank trace spans, metrics, Chrome-trace export.

The layer every performance-facing subsystem reports through:

* :data:`TRACER` / :func:`tracing` / ``Tracer.span`` — structured,
  thread-safe, nestable spans with a single-attribute-check disabled path
  (``repro.obs.tracer``);
* :class:`MetricsRegistry` — the one counter type, plus histograms
  folded from spans (``repro.obs.metrics``);
* :func:`write_chrome_trace` — trace-event JSON, one pid per rank,
  loadable in Perfetto / chrome://tracing (``repro.obs.export``).

``python -m repro trace <demo> --out trace.json`` captures a trace of a
demo workload end to end.
"""

from .export import chrome_trace_events, write_chrome_trace
from .metrics import Histogram, MetricsRegistry
from .tracer import NULL_SPAN, SpanRecord, TRACER, Tracer, tracing

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "SpanRecord",
    "TRACER",
    "Tracer",
    "chrome_trace_events",
    "tracing",
    "write_chrome_trace",
]
