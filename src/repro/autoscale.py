"""Metrics-driven autoscaling for elastic redistribution.

The malleability stack gives three mechanisms — ``Communicator.spawn``,
``Redistributor.resize`` and the pipeline's ``resize_schedule`` — but no
*policy*.  This module supplies it: an :class:`Autoscaler` consumes
:class:`~repro.obs.MetricsRegistry` signals (exchange seconds per epoch,
queue depth), smooths them with exponentially-weighted moving averages,
and recommends a rank-count target that the caller applies with
``ResilientRedistributor.resize`` (or folds into a pipeline
``resize_schedule``).

Separation of concerns mirrors the rest of the repo: the autoscaler never
talks to a communicator.  One rank (by convention rank 0) observes and
recommends, broadcasts the target, and *every* member calls ``resize`` —
the decision is data, the reconfiguration is collective.

``python -m repro autoscale`` demos the full loop: a redistribution
workload under a synthetic demand curve grows from 2 ranks to the
configured ceiling and drains back down, with spawned joiners entering and
shrunk leavers exiting mid-run, every epoch's output checked bitwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

import numpy as np

__all__ = ["AutoscalePolicy", "Autoscaler", "autoscale_demo"]

#: Registry names the autoscaler reads by default: the per-exchange span
#: histogram the tracer/pipeline emit, and a gauge-style counter callers
#: maintain for backlog (pending frames, mailbox depth, ...).
EXCHANGE_SPAN = "phase.redistribute"
QUEUE_GAUGE = "stream.queue_depth"


@dataclass(frozen=True)
class AutoscalePolicy:
    """Watermark policy: when to grow, when to shrink, and by how much.

    ``grow_exchange_s`` / ``shrink_exchange_s``
        High and low watermarks on the EWMA of exchange seconds per epoch.
        Above the high watermark the exchange itself is the bottleneck, so
        more ranks (smaller per-rank payloads) are recommended; below the
        low watermark the world is over-provisioned.
    ``grow_queue_depth``
        High watermark on the EWMA of queue depth (pending work items).
        Backlog growth recommends growing even while individual exchanges
        are cheap.  Shrinking additionally requires the backlog to sit
        below this watermark — never scale in while work is queueing.
    ``cooldown_epochs``
        Observed epochs that must pass after a resize before the next
        recommendation may differ from the current size; damps flapping
        (each reconfiguration costs a full data migration).
    ``step``
        Ranks added or removed per decision (gentle, reversible moves).
    ``ewma_alpha``
        Smoothing factor in (0, 1]; 1 reacts to the latest epoch only.
    """

    min_ranks: int = 1
    max_ranks: int = 16
    grow_exchange_s: float = 0.5
    shrink_exchange_s: float = 0.05
    grow_queue_depth: float = 4.0
    cooldown_epochs: int = 2
    step: int = 1
    ewma_alpha: float = 0.5

    def __post_init__(self) -> None:
        if not 1 <= self.min_ranks <= self.max_ranks:
            raise ValueError(
                f"need 1 <= min_ranks <= max_ranks, got "
                f"{self.min_ranks}..{self.max_ranks}"
            )
        if not 0 <= self.shrink_exchange_s < self.grow_exchange_s:
            raise ValueError(
                "need 0 <= shrink_exchange_s < grow_exchange_s, got "
                f"{self.shrink_exchange_s} / {self.grow_exchange_s}"
            )
        if self.grow_queue_depth < 0:
            raise ValueError("grow_queue_depth must be >= 0")
        if self.cooldown_epochs < 0:
            raise ValueError("cooldown_epochs must be >= 0")
        if self.step < 1:
            raise ValueError("step must be >= 1")
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")


@dataclass
class AutoscaleDecision:
    """One recommendation, kept for post-mortems and the demo timeline."""

    epoch: int
    current: int
    target: int
    reason: str
    exchange_ewma: Optional[float]
    queue_ewma: Optional[float]


class Autoscaler:
    """EWMA observer + watermark recommender over resize-capable worlds."""

    def __init__(self, policy: Optional[AutoscalePolicy] = None) -> None:
        self.policy = policy or AutoscalePolicy()
        self.exchange_ewma: Optional[float] = None
        self.queue_ewma: Optional[float] = None
        self.epochs_observed = 0
        self.decisions: List[AutoscaleDecision] = []
        self._last_resize_epoch = 0
        # registry snapshot for delta-based per-epoch exchange time
        self._seen_exchange: Tuple[int, float] = (0, 0.0)

    # -- signal intake -------------------------------------------------------

    def observe(
        self,
        exchange_s: Optional[float] = None,
        queue_depth: Optional[float] = None,
    ) -> None:
        """Fold one epoch's raw signals into the EWMAs."""
        self.epochs_observed += 1
        if exchange_s is not None:
            self.exchange_ewma = self._ewma(self.exchange_ewma, exchange_s)
        if queue_depth is not None:
            self.queue_ewma = self._ewma(self.queue_ewma, queue_depth)

    def observe_registry(
        self,
        registry: Any,
        exchange_span: str = EXCHANGE_SPAN,
        queue_gauge: str = QUEUE_GAUGE,
    ) -> None:
        """One epoch's signals, read from a :class:`MetricsRegistry`.

        The exchange signal is the *delta* of the span histogram since the
        previous call (histograms are cumulative; the delta is this epoch's
        exchange seconds).  The queue signal is the current value of the
        ``queue_gauge`` counter, treated as a gauge.
        """
        exchange_s = None
        hist = registry.histograms.get(exchange_span)
        if hist is not None:
            seen_count, seen_total = self._seen_exchange
            if hist.count > seen_count:
                exchange_s = hist.total - seen_total
                self._seen_exchange = (hist.count, hist.total)
        queue_depth = registry.counters.get(queue_gauge)
        self.observe(exchange_s=exchange_s, queue_depth=queue_depth)

    def _ewma(self, current: Optional[float], value: float) -> float:
        if current is None:
            return float(value)
        alpha = self.policy.ewma_alpha
        return alpha * float(value) + (1 - alpha) * current

    # -- recommendation ------------------------------------------------------

    def recommend(self, current: int) -> int:
        """The rank count the world should run at, given the EWMAs.

        Pure function of observer state: returns ``current`` during the
        post-resize cooldown or when the signals sit between watermarks.
        The caller is responsible for broadcasting the target and invoking
        the (collective) resize; call :meth:`record_resize` once it lands.
        """
        policy = self.policy
        target = current
        reason = "steady"
        in_cooldown = (
            self.epochs_observed - self._last_resize_epoch
            < policy.cooldown_epochs
        )
        exchange_high = (
            self.exchange_ewma is not None
            and self.exchange_ewma > policy.grow_exchange_s
        )
        exchange_low = (
            self.exchange_ewma is not None
            and self.exchange_ewma < policy.shrink_exchange_s
        )
        queue_high = (
            self.queue_ewma is not None
            and self.queue_ewma > policy.grow_queue_depth
        )
        if in_cooldown:
            reason = "cooldown"
        elif exchange_high or queue_high:
            target = min(current + policy.step, policy.max_ranks)
            reason = "exchange_time" if exchange_high else "queue_depth"
        elif exchange_low and not queue_high:
            target = max(current - policy.step, policy.min_ranks)
            reason = "overprovisioned"
        if target == current and reason not in ("cooldown", "steady"):
            reason = f"{reason}_at_limit"
        self.decisions.append(
            AutoscaleDecision(
                epoch=self.epochs_observed,
                current=current,
                target=target,
                reason=reason,
                exchange_ewma=self.exchange_ewma,
                queue_ewma=self.queue_ewma,
            )
        )
        return target

    def record_resize(self, new_n: int) -> None:
        """Start the cooldown window after an applied reconfiguration."""
        self._last_resize_epoch = self.epochs_observed


# -- demo: the full observe -> recommend -> resize loop -----------------------


@dataclass
class _DemoSpec:
    """Pickle-friendly demo parameters (crosses the fork on spawn)."""

    side: int
    epochs: int
    policy: AutoscalePolicy
    queue_curve: Tuple[float, ...]
    timeline: List[str] = field(default_factory=list)


def _demo_slab(rank: int, n: int):
    from .core.box import Box

    side = _DEMO_SIDE[0]
    base, extra = divmod(side, n)
    start = rank * base + min(rank, extra)
    rows = base + (1 if rank < extra else 0)
    return Box((0, start), (side, rows)) if rows else None


#: The demo layout closure must be picklable by reference for the process
#: executor, so the side length travels through module state set per run.
_DEMO_SIDE = [0]


def _demo_field(side: int) -> np.ndarray:
    return np.arange(side * side, dtype=np.float32).reshape(side, side)


def _demo_rows(own) -> np.ndarray:
    side = _DEMO_SIDE[0]
    return _demo_field(side)[own.offset[1] : own.offset[1] + own.dims[1], :]


def _demo_epochs(rr, own, data, spec: _DemoSpec) -> dict:
    """The shared epoch loop: members continue it, joiners enter it.

    Rank 0 owns the autoscaler and a :class:`MetricsRegistry`; every epoch
    it folds the measured exchange time and the synthetic demand curve into
    the registry, asks for a recommendation, and broadcasts it.  All
    members then call ``ResilientRedistributor.resize`` together — leavers
    return out of the loop, joiners enter it via the resize worker at the
    members' epoch.
    """
    from .obs import MetricsRegistry

    scaler = Autoscaler(spec.policy) if rr.comm.rank == 0 else None
    registry = MetricsRegistry() if scaler else None
    resizes = 0
    while rr.epoch < spec.epochs:
        epoch_index = rr.epoch  # before the exchange bumps it
        start = time.perf_counter()
        out = rr.gather_need(data)
        elapsed = time.perf_counter() - start
        expect = _demo_rows(own)
        if not np.array_equal(out, expect):
            raise AssertionError(f"epoch {epoch_index} output diverged")
        target = rr.comm.size
        if scaler is not None:
            registry.observe(EXCHANGE_SPAN, elapsed, rank=0)
            registry.gauge(
                QUEUE_GAUGE, spec.queue_curve[min(epoch_index, len(spec.queue_curve) - 1)]
            )
            scaler.observe_registry(registry)
            target = scaler.recommend(rr.comm.size)
            decision = scaler.decisions[-1]
            spec.timeline.append(
                f"epoch {decision.epoch:>2}: ranks {decision.current} "
                f"queue {decision.queue_ewma:5.2f} "
                f"exch {1e3 * (decision.exchange_ewma or 0):7.3f} ms "
                f"-> {decision.target} ({decision.reason})"
            )
        target = rr.comm.bcast(target, root=0)
        if target != rr.comm.size and rr.epoch < spec.epochs:
            result = rr.resize(
                target, out, _demo_slab, worker=_demo_join, worker_args=(spec,)
            )
            resizes += 1
            if not result.member:
                return {"rank": None, "resizes": resizes, "timeline": []}
            if scaler is not None:
                scaler.record_resize(target)
            own = result.own
            rr.setup(own=[own], need=own)
            data = _demo_rows(own).copy()
        else:
            data = out
    return {
        "rank": rr.comm.rank,
        "resizes": resizes,
        "final_size": rr.comm.size,
        "timeline": spec.timeline if scaler is not None else [],
    }


def _demo_join(rr, result, spec: _DemoSpec) -> dict:
    """Spawned-rank entry: verify the migrated slab, then join the loop."""
    _DEMO_SIDE[0] = spec.side
    own = result.own
    data = result.data.reshape(own.np_shape()).copy()
    if not np.array_equal(data, _demo_rows(own)):
        raise AssertionError("joiner received wrong migrated data")
    rr.setup(own=[own], need=own)
    return _demo_epochs(rr, own, data, spec)


def _demo_worker(comm, spec: _DemoSpec) -> dict:
    from .resilience import ResilientRedistributor

    _DEMO_SIDE[0] = spec.side
    rr = ResilientRedistributor(comm, 2, np.float32)
    own = _demo_slab(comm.rank, comm.size)
    rr.setup(own=[own], need=own)
    data = _demo_rows(own).copy()
    return _demo_epochs(rr, own, data, spec)


def autoscale_demo(
    side: int = 96,
    epochs: int = 14,
    start_ranks: int = 2,
    max_ranks: int = 5,
    executor: Optional[str] = None,
) -> str:
    """Run the observe/recommend/resize loop end to end; returns a report.

    A hump-shaped synthetic demand curve drives queue depth above the grow
    watermark and back below it, so the world grows rank by rank (spawning
    joiners mid-run) and then drains back down (splitting leavers off),
    with every epoch's redistribution checked bitwise against the truth.
    """
    from .mpisim.executor import run_spmd

    policy = AutoscalePolicy(
        min_ranks=min(start_ranks, 2),
        max_ranks=max_ranks,
        grow_exchange_s=10.0,  # queue depth drives growth in the demo
        shrink_exchange_s=5.0,
        grow_queue_depth=4.0,
        cooldown_epochs=1,
        step=1,
        ewma_alpha=0.6,
    )
    peak = max(2, epochs // 2)
    curve = tuple(
        8.0 if epoch < peak else 0.0 for epoch in range(epochs)
    )
    spec = _DemoSpec(
        side=side, epochs=epochs, policy=policy, queue_curve=curve
    )
    results = run_spmd(
        start_ranks,
        _demo_worker,
        spec,
        executor=executor,
        spawn_slots=max(0, max_ranks - start_ranks),
    )
    summaries = [r for r in results if isinstance(r, dict)]
    root = next(r for r in summaries if r.get("rank") == 0)
    lines = [
        f"autoscale demo: {side}x{side} float32, {epochs} epochs, "
        f"{start_ranks} -> [{policy.min_ranks}, {policy.max_ranks}] ranks",
        *root["timeline"],
        f"resizes applied: {root['resizes']}, final world size: "
        f"{root['final_size']}; every epoch bitwise-correct",
    ]
    return "\n".join(lines)
