"""Measurement helpers shared by every workload.

Statistics (median, the "at least ten samples beyond" percentile rule), the
benchmark's own in-memory span log with self-time arithmetic and a Chrome
trace-event export, the machine header every result file carries, the
per-launch context a workload measures through and the child-process spawn.

Nothing here imports ``repro``: these helpers are unit-tested without it.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

#: A percentile is reported only with at least this many samples beyond it
#: (choosing-metrics §1), so a p95 needs 200 samples and a p90 needs 100.
MIN_BEYOND = 10


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    n = len(samples)
    rank = -(-n * q // 100)  # ceil(n * q / 100), the nearest-rank index + 1
    if n - rank < MIN_BEYOND:
        return None
    return float(sorted(samples)[int(rank) - 1])


def iqr_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the run-to-run spread the bounds are judged against."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


#: A segment this much faster than the ones next to it in rank is not quiet,
#: it is another regime (rank threads briefly sharing one core run small
#: messages four times faster), and :func:`quietest` steps over it.
REGIME_RATIO = 0.6


def quietest(values: Sequence[float]) -> float:
    """The smallest value, stepping over any that is under
    :data:`REGIME_RATIO` of the value two places above it.

    Interference from the host only ever adds time, in bursts of seconds and
    in levels that last minutes, so of a run's segments the fastest is the
    one that says most about the program and least about the neighbours."""
    ordered = sorted(values)
    for value, reference in zip(ordered, ordered[2:]):
        if value >= REGIME_RATIO * reference:
            return float(value)
    return float(ordered[-2] if len(ordered) > 2 else ordered[0])


def slowest_rank(per_rank: Sequence[Sequence[float]]) -> list[float]:
    """Per-iteration maximum over ranks: one collective operation is done
    when its slowest rank is."""
    return [max(column) for column in zip(*per_rank)]


# -- spans ---------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """One closed span of the benchmark's own trace.

    ``op`` is the identifier every span of one exchange / load / frame /
    publish shares; ``parent`` is the ``sid`` of the enclosing span on the
    same thread (``None`` at top level).  ``wait`` marks time spent blocked
    on another rank or thread, which the work shares leave out.
    """

    sid: int
    parent: Optional[int]
    name: str
    layer: str
    rank: Optional[int]
    op: Optional[int]
    start: float
    end: float
    wait: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanLog:
    """In-memory span list, appended to from any rank thread and written
    out only when the run ends.  A disabled log hands out one shared no-op
    context manager, so the untraced pass runs the same code."""

    _NULL = contextlib.nullcontext()

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def span(self, name: str, layer: str, rank: Optional[int] = None,
             op: Optional[int] = None, wait: bool = False):
        if not self.enabled:
            return self._NULL
        return self._record(name, layer, rank, op, wait)

    @contextlib.contextmanager
    def _record(self, name, layer, rank, op, wait):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic under the interpreter lock.
            self.spans.append(Span(sid, parent, name, layer, rank, op, start, end, wait))


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """``sid -> self time``: a span's duration minus the part of that
    interval its child spans cover."""
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.sid] = span.duration - covered
    return out


def layer_self_totals(spans: Iterable[Span], include_wait: bool = True) -> dict[str, float]:
    """Summed self time per layer (seconds)."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        if span.wait and not include_wait:
            continue
        totals[span.layer] = totals.get(span.layer, 0.0) + own[span.sid]
    return totals


def op_self_totals(spans: Iterable[Span]) -> dict[Optional[int], float]:
    """Summed self time per operation id, all layers (seconds)."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[Optional[int], float] = {}
    for span in spans:
        totals[span.op] = totals.get(span.op, 0.0) + own[span.sid]
    return totals


def work_shares(spans: Iterable[Span]) -> dict[str, float]:
    """Each layer's share of the busy (non-waiting) self time, all ranks."""
    totals = layer_self_totals(spans, include_wait=False)
    busy = sum(totals.values())
    return {layer: value / busy for layer, value in totals.items()} if busy else {}


def chrome_trace(spans: Iterable[Span]) -> dict:
    """Trace-event JSON (Perfetto / chrome://tracing): one pid per rank,
    the driver thread under the pid after the last rank, the shared
    operation id as an arg."""
    spans = list(spans)
    ranks = sorted({s.rank for s in spans if s.rank is not None})
    driver = (ranks[-1] + 1) if ranks else 0
    origin = min((s.start for s in spans), default=0.0)
    labels = [(r, f"rank {r}") for r in ranks]
    if any(s.rank is None for s in spans):
        labels.append((driver, "driver"))
    events = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0, "ts": 0,
         "args": {"name": label}}
        for pid, label in labels
    ]
    for s in sorted(spans, key=lambda s: s.start):
        events.append({
            "ph": "X",
            "name": s.name,
            "cat": s.layer,
            "pid": s.rank if s.rank is not None else driver,
            "tid": 0,
            "ts": (s.start - origin) * 1e6,
            "dur": s.duration * 1e6,
            "args": {"layer": s.layer, "op": s.op, "wait": s.wait},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- machine header --------------------------------------------------------------


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (
                (index / "size").read_text().strip()
            )
    except OSError:
        pass
    return sizes


def machine_header() -> dict:
    """What two result files must agree on before they may be compared."""
    import numpy

    affinity = (
        sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    )
    return {
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "caches": _cache_sizes(),
    }


#: Header keys whose disagreement makes a comparison meaningless.
COMPARABLE_KEYS = ("cpu_count", "sched_getaffinity", "python", "numpy")


# -- per-launch context ------------------------------------------------------------


@dataclass
class Context:
    """What one child process measures through."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    started_at: float  # time.time() taken by the parent just before the spawn
    trace_out: Optional[Path] = None
    log: SpanLog = field(default_factory=lambda: SpanLog(enabled=False))
    first_sample_at: Optional[float] = None

    def mark_first_sample(self) -> None:
        """Call right before the first measured sample: ends ``setup_s``."""
        if self.first_sample_at is None:
            self.first_sample_at = time.time()

    @property
    def setup_s(self) -> float:
        end = self.first_sample_at if self.first_sample_at is not None else time.time()
        return end - self.started_at

    def write_trace(self) -> None:
        if self.trace_out is not None and self.log.spans:
            self.trace_out.write_text(json.dumps(chrome_trace(self.log.spans)))


def spawn_child(workload: str, seed: int, seconds: float, trace: int, workdir: Path,
                timeout: float, trace_out: Optional[Path] = None, pin: bool = False) -> dict:
    """Run one workload in a fresh ``run.py --child`` process and return the
    JSON object it prints last.  ``DDR_*`` variables are not inherited, so
    backend, transport and executor are the program's defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DDR_")}
    command = [
        sys.executable, str(Path(__file__).resolve().parent / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace), "--workdir", str(workdir),
        "--started-at", repr(time.time()),
    ]
    if trace_out:
        command += ["--trace-out", str(trace_out)]
    if pin:
        command.append("--pin")
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: child exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def peak_rss_mib() -> float:
    import resource

    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
