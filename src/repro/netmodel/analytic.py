"""Analytic cost model for DDR's exchange engines.

Reads the *actual* schedule produced by the planner — the same
:class:`~repro.core.schedule.ExchangeSchedule` lanes the executor replays —
and converts it into wall time under the LogGP-style model in
:class:`~repro.netmodel.cluster.ClusterSpec`.  This is the model behind the
Table II predictions and the Figure 3 scaling curves.

Per-engine costs (:func:`engine_cost`) share one per-round vocabulary:

- a *collective* round pays the O(P) posting overhead ``alpha(P)`` plus the
  busiest rank's payload serialised through its link share;
- a *direct* round pays a rendezvous handshake per message instead of the
  collective overhead, plus the same serialisation — the busiest rank again
  sets the round time.

``alltoallw`` prices every round as collective, ``p2p`` every round as
direct, and ``auto`` applies the same per-round selection rule the executor
runs (:func:`repro.core.schedule.collective_preferred`), so predicted and
executed choices agree by construction.

With a memory budget (``limit_bytes``) the vocabulary gains a third round
shape: a *bounded* round pays a handshake per budget-sized piece plus
serialisation at piece-size bandwidth, in exchange for a staging peak
capped by the piece count in flight.  :func:`pareto_round_backend` is the
(time, peak-memory) Pareto rule :func:`repro.core.engine.round_protocol`
executes for ``auto`` under a budget — again shared, so predicted and
executed choices agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.schedule import (
    DEFAULT_BOUNDED_CHUNK_BYTES,
    PIECE_INFLIGHT,
    GlobalPlan,
    chunk_bytes_for,
    collective_preferred,
)
from .cluster import ClusterSpec

#: Modeled cost of one rendezvous handshake on the direct-send path.
P2P_PER_MESSAGE_S = 5e-6

#: Modeled per-piece overhead on the bounded path: the receive post plus
#: the eagerly staged send of each lowered piece.
BOUNDED_PER_PIECE_S = 2 * P2P_PER_MESSAGE_S


@dataclass(frozen=True)
class ExchangeCost:
    """Per-phase breakdown of a full redistribution."""

    rounds: int
    alpha_s: float  # collective software overhead, all rounds
    transfer_s: float  # serialization through the per-process link share
    self_copy_s: float  # local memcpy of data a rank keeps
    mean_round_payload: float  # bytes/rank/round (Table III statistic)

    @property
    def total_s(self) -> float:
        return self.alpha_s + self.transfer_s + self.self_copy_s


@dataclass(frozen=True)
class EngineCost:
    """Modeled cost of one redistribution under a specific engine."""

    backend: str
    rounds: int
    alpha_s: float  # collective posting overhead (collective rounds only)
    message_s: float  # rendezvous handshakes (direct rounds only)
    transfer_s: float  # serialization through the per-process link share
    self_copy_s: float  # local memcpy of data a rank keeps
    round_engines: tuple[str, ...]  # per-round protocol actually priced

    @property
    def total_s(self) -> float:
        return self.alpha_s + self.message_s + self.transfer_s + self.self_copy_s


def round_payloads(plan: GlobalPlan) -> list[int]:
    """Max bytes any rank sends (to others) in each round.

    The collective completes when the busiest rank drains, so the max —
    not the mean — drives round time.
    """
    return [
        max((s.rounds[r].bytes_out for s in plan.schedules), default=0)
        for r in range(plan.nrounds)
    ]


def pareto_round_backend(
    cluster: ClusterSpec,
    *,
    nprocs: int,
    max_partners: int,
    max_round_bytes: int,
    limit_bytes: Optional[int],
    chunk_bytes: Optional[int] = None,
) -> str:
    """The budget-aware per-round selection rule (executed for ``auto``).

    Every input is either a global plan statistic (identical on all ranks
    by construction) or the static budget limit, so every rank returns the
    same backend with no negotiation.  Candidates are priced on both axes:

    - ``alltoallw`` / ``p2p``: the time model's collective/direct round
      shapes, both peaking at ``max_round_bytes`` of staging;
    - ``bounded``: per-piece handshakes and piece-size bandwidth, peaking
      at ``PIECE_INFLIGHT`` resident pieces.

    Among candidates whose peak fits ``limit_bytes``, the modeled-fastest
    wins; when none fit, the minimum-peak one does (best effort — the
    ledger still enforces the hard line with a typed error).
    """
    dense = collective_preferred(max_partners, nprocs)
    strict = "alltoallw" if dense else "p2p"
    if limit_bytes is None or max_round_bytes <= 0:
        return strict
    if chunk_bytes is None:
        chunk_bytes = chunk_bytes_for(limit_bytes)
    # The staged peak counts the busiest rank's payload twice (sends staged
    # + receives in flight); halve it back to an outbound volume for time.
    payload = max(1, max_round_bytes // 2)
    xfer = payload / cluster.effective_bw(payload)
    pieces = -(-payload // chunk_bytes)
    bounded_t = pieces * BOUNDED_PER_PIECE_S + payload / cluster.effective_bw(
        min(payload, chunk_bytes)
    )
    candidates = (
        (cluster.alpha(nprocs) + xfer, max_round_bytes, "alltoallw"),
        (max_partners * P2P_PER_MESSAGE_S + xfer, max_round_bytes, "p2p"),
        (bounded_t, min(max_round_bytes, PIECE_INFLIGHT * chunk_bytes), "bounded"),
    )
    fits = [c for c in candidates if c[1] <= limit_bytes]
    if fits:
        return min(fits, key=lambda c: c[0])[2]
    return min(candidates, key=lambda c: (c[1], c[0]))[2]


def engine_cost(
    cluster: ClusterSpec,
    plan: GlobalPlan,
    backend: str = "alltoallw",
    limit_bytes: Optional[int] = None,
) -> EngineCost:
    """Model one full redistribution under ``backend`` on ``cluster``.

    ``backend`` is ``"alltoallw"``, ``"p2p"``, ``"auto"``, or ``"bounded"``
    — the same names ``Redistributor(backend=...)`` accepts.  With
    ``limit_bytes`` set, ``auto`` rounds are selected by
    :func:`pareto_round_backend` (time alone otherwise) and bounded rounds
    are priced with the limit's derived piece size.
    """
    if backend not in ("alltoallw", "p2p", "auto", "bounded"):
        raise ValueError(
            f"unknown backend {backend!r}; choose 'alltoallw', 'p2p', "
            "'auto', or 'bounded'"
        )
    schedules = plan.schedules
    chunk_bytes = (
        chunk_bytes_for(limit_bytes)
        if limit_bytes is not None
        else DEFAULT_BOUNDED_CHUNK_BYTES
    )

    alpha_s = 0.0
    message_s = 0.0
    transfer_s = 0.0
    round_engines: list[str] = []
    for round_index in range(plan.nrounds):
        rounds = [s.rounds[round_index] for s in schedules]
        if backend in ("alltoallw", "p2p", "bounded"):
            mode = backend
        else:
            max_partners = max((r.max_partners for r in rounds), default=0)
            if limit_bytes is None:
                mode = (
                    "alltoallw"
                    if collective_preferred(max_partners, plan.nprocs)
                    else "p2p"
                )
            else:
                peak = max((r.max_round_bytes for r in rounds), default=0)
                mode = pareto_round_backend(
                    cluster,
                    nprocs=plan.nprocs,
                    max_partners=max_partners,
                    max_round_bytes=peak,
                    limit_bytes=limit_bytes,
                    chunk_bytes=chunk_bytes,
                )
        round_engines.append(mode)

        if mode == "alltoallw":
            alpha_s += cluster.alpha(plan.nprocs)
            payload = max((r.bytes_out for r in rounds), default=0)
            transfer_s += payload / cluster.effective_bw(payload)
        elif mode == "bounded":
            # The busiest rank again sets the round time, paying a
            # handshake per lowered piece and serialising at the (smaller)
            # piece size's effective bandwidth.
            worst_t = 0.0
            worst_msg = 0.0
            worst_xfer = 0.0
            for r in rounds:
                pieces = sum(
                    -(-lane.nbytes // chunk_bytes) for lane in r.sends
                )
                msg = pieces * BOUNDED_PER_PIECE_S
                xfer = r.bytes_out / cluster.effective_bw(
                    min(r.bytes_out, chunk_bytes) or 1
                )
                if msg + xfer > worst_t:
                    worst_t = msg + xfer
                    worst_msg = msg
                    worst_xfer = xfer
            message_s += worst_msg
            transfer_s += worst_xfer
        else:
            # The busiest rank sets the round time; attribute its handshake
            # and serialisation shares separately so the sum stays exact.
            worst_t = 0.0
            worst_msg = 0.0
            worst_xfer = 0.0
            for r in rounds:
                msg = r.message_count * P2P_PER_MESSAGE_S
                xfer = r.bytes_out / cluster.effective_bw(r.bytes_out)
                if msg + xfer > worst_t:
                    worst_t = msg + xfer
                    worst_msg = msg
                    worst_xfer = xfer
            message_s += worst_msg
            transfer_s += worst_xfer

    return EngineCost(
        backend=backend,
        rounds=plan.nrounds,
        alpha_s=alpha_s,
        message_s=message_s,
        transfer_s=transfer_s,
        # Worst rank's local memcpy of the data it keeps across all rounds.
        self_copy_s=max((s.total_self_bytes for s in schedules), default=0)
        / cluster.memcpy_bw,
        round_engines=tuple(round_engines),
    )


def exchange_cost(cluster: ClusterSpec, plan: GlobalPlan) -> ExchangeCost:
    """Model one full redistribution (all rounds, ``Alltoallw``) on ``cluster``."""
    cost = engine_cost(cluster, plan, "alltoallw")
    return ExchangeCost(
        rounds=cost.rounds,
        alpha_s=cost.alpha_s,
        transfer_s=cost.transfer_s,
        self_copy_s=cost.self_copy_s,
        mean_round_payload=plan.mean_bytes_per_chunk_round(),
    )


def point_to_point_cost(cluster: ClusterSpec, plan: GlobalPlan) -> float:
    """Model the direct-send backend's wire time for the ablation.

    Each rank pays a fixed per-message latency per partner instead of the
    collective's O(P) posting overhead, plus the same serialization time.
    (Wire time only: the self-copy term cancels in backend comparisons.)
    """
    cost = engine_cost(cluster, plan, "p2p")
    return cost.message_s + cost.transfer_s
