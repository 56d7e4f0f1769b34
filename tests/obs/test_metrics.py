"""MetricsRegistry: histograms, counters, span ingestion, summary."""

from __future__ import annotations

import math

from repro.obs import Histogram, MetricsRegistry, SpanRecord
from repro.obs.metrics import BUCKET_BOUNDS_S


def record(name, rank=0, dur_us=1000.0, **attrs):
    return SpanRecord(
        name=name, rank=rank, tid=1, start_us=0.0, dur_us=dur_us, attrs=attrs
    )


class TestHistogram:
    def test_observe_streams_stats(self):
        hist = Histogram()
        for value in (1e-5, 1e-3, 2.0):
            hist.observe(value)
        assert hist.count == 3
        assert math.isclose(hist.total, 1e-5 + 1e-3 + 2.0)
        assert hist.min == 1e-5
        assert hist.max == 2.0
        assert math.isclose(hist.mean, hist.total / 3)
        assert sum(hist.buckets) == 3

    def test_bucket_placement_and_overflow(self):
        hist = Histogram()
        hist.observe(5e-4)  # <= 1e-3 bound
        hist.observe(100.0)  # beyond the last bound -> overflow bucket
        assert hist.buckets[BUCKET_BOUNDS_S.index(1e-3)] == 1
        assert hist.buckets[-1] == 1


class TestRegistry:
    def test_observe_keeps_aggregate_and_per_rank(self):
        registry = MetricsRegistry()
        registry.observe("phase.render", 0.01, rank=0)
        registry.observe("phase.render", 0.03, rank=1)
        assert registry.histograms["phase.render"].count == 2
        assert registry.by_rank[0]["phase.render"].count == 1
        assert registry.by_rank[1]["phase.render"].count == 1

    def test_ingest_spans_durations_and_bytes(self):
        registry = MetricsRegistry()
        registry.ingest(
            [
                record("mpi.Send", rank=0, dur_us=500.0, nbytes=1024),
                record("mpi.Send", rank=1, dur_us=700.0, nbytes=2048),
                record("ddr.round", rank=0, dur_us=900.0),
            ]
        )
        send = registry.histograms["mpi.Send"]
        assert send.count == 2
        assert math.isclose(send.total, 1.2e-3)
        assert registry.counters["mpi.Send.bytes"] == 3072
        assert "ddr.round.bytes" not in registry.counters

    def test_summary_lists_spans_and_counters(self):
        registry = MetricsRegistry()
        registry.ingest([record("mpi.Send", rank=0, nbytes=10)])
        registry.observe("phase.render", 0.01, rank=1)
        text = registry.summary(per_rank=True)
        assert "mpi.Send" in text
        assert "phase.render" in text
        assert "rank 0" in text and "rank 1" in text
        assert "mpi.Send.bytes" in text

    def test_summary_empty(self):
        assert MetricsRegistry().summary() == ""
