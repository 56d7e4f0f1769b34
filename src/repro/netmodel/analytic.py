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

Which of the two a round is comes from the function the executor asks
(:func:`repro.core.schedule.round_protocol`): ``alltoallw`` prices every
round as collective, ``p2p`` (and ``bounded``, its other name) every round
as direct, ``auto`` by the density rule — so predicted and executed choices
agree by construction.

Every function prices the plan it is handed, round by round.  Handed
:func:`executed_plan` — the planned rounds regrouped the way the executor
regroups them (:func:`repro.core.schedule.regroup`: merged while a staging
limit allows, cut into piece-rounds of the round's own protocol where it
does not, under every backend) — they price what actually runs; the
paper's tables are reproduced from the planned rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..core.engine import check_backend
from ..core.schedule import GlobalPlan, regroup, round_protocol
from .cluster import ClusterSpec

#: Modeled cost of one rendezvous handshake on the direct-send path.
P2P_PER_MESSAGE_S = 5e-6


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


def executed_plan(
    plan: GlobalPlan, backend: str = "alltoallw", limit_bytes: Optional[int] = None
) -> GlobalPlan:
    """``plan`` as ``backend`` executes it under ``limit_bytes`` of staging
    per rank (:func:`~repro.core.schedule.regroup` of every rank's schedule;
    ``None``: no cap, so one round per protocol run).  ``nrounds`` of the
    result counts executed rounds."""
    check_backend(backend)
    if not plan.schedules:
        return plan
    schedules = [regroup(s, backend, limit_bytes) for s in plan.schedules]
    return replace(plan, nrounds=schedules[0].nrounds, schedules=schedules)


def engine_cost(
    cluster: ClusterSpec,
    plan: GlobalPlan,
    backend: str = "alltoallw",
) -> EngineCost:
    """Model one full redistribution under ``backend`` on ``cluster``.

    ``backend`` is ``"alltoallw"``, ``"p2p"``, ``"auto"``, or ``"bounded"``
    — the same names ``Redistributor(backend=...)`` accepts.
    """
    check_backend(backend)
    schedules = plan.schedules

    alpha_s = 0.0
    message_s = 0.0
    transfer_s = 0.0
    round_engines: list[str] = []
    for round_index in range(plan.nrounds):
        rounds = [s.rounds[round_index] for s in schedules]
        mode = round_protocol(backend, rounds[0])  # plan-wide: any rank's copy
        round_engines.append(mode)

        if mode == "alltoallw":
            alpha_s += cluster.alpha(plan.nprocs)
            payload = max((r.bytes_out for r in rounds), default=0)
            transfer_s += payload / cluster.effective_bw(payload)
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
