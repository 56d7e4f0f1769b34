"""Analytic cost model for DDR's exchange engines.

Reads the plan's per-round table (:class:`~repro.core.schedule.RoundTable`:
bytes and messages per rank, the plan-wide partner count, the bytes each
rank keeps) and converts it into wall time under the LogGP-style model in
:class:`~repro.netmodel.cluster.ClusterSpec`.  This is the model behind the
Table II predictions and the Figure 3 scaling curves.

Every price goes through :func:`engine_cost`, which shares one per-round
vocabulary between the engines:

- a *collective* round pays the O(P) posting overhead ``alpha(P)`` plus the
  busiest rank's payload serialised through its link share;
- a *direct* round pays a rendezvous handshake per message instead of the
  collective overhead, plus the same serialisation — the busiest rank again
  sets the round time.

Which of the two a round is comes from the rule the executor follows
(:func:`repro.core.schedule.round_protocol`): ``alltoallw`` prices every
round as collective, ``p2p`` (and ``bounded``, its other name) every round
as direct, ``auto`` by the density rule — so predicted and executed choices
agree by construction.

Every function prices the table it is handed, round by round: a plan's own
(the planned rounds, which the paper's tables are reproduced from) or
:func:`executed_plan`'s — the rounds the engine runs, built by the engine's
own builder (:meth:`repro.core.schedule.RankPlan.executed`: merged while a
staging limit allows, cut into piece-rounds of the round's own protocol
where it does not, under every backend).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..core.engine import check_backend
from ..core.schedule import GlobalPlan, RoundTable
from ..mpisim.datatypes import BYTE
from .cluster import ClusterSpec

#: Modeled cost of one rendezvous handshake on the direct-send path.
P2P_PER_MESSAGE_S = 5e-6


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


def _table(priced: Union[GlobalPlan, RoundTable]) -> RoundTable:
    return priced.table if isinstance(priced, GlobalPlan) else priced


def executed_plan(
    plan: GlobalPlan, backend: str = "alltoallw", limit_bytes: Optional[int] = None
) -> RoundTable:
    """The :class:`~repro.core.schedule.RoundTable` of the rounds ``backend``
    executes under ``limit_bytes`` of staging per rank (``None``: no cap, so
    one round per protocol run): every rank's
    :meth:`~repro.core.schedule.RankPlan.executed`, typed as
    ``element_size`` bytes per cell."""
    check_backend(backend)
    types: dict = {}
    ranks = [
        rank.executed(backend, limit_bytes, BYTE, plan.element_size, types)
        for rank in plan.rank_plans()
    ]

    def per_rank(value) -> np.ndarray:
        return np.array([[value(rnd) for rnd in rounds] for rounds in ranks], np.int64).T

    return RoundTable(
        plan.nprocs, per_rank(lambda rnd: rnd.bytes_out), per_rank(lambda rnd: len(rnd.sends)),
        [rnd.max_partners for rnd in ranks[0]], per_rank(lambda rnd: rnd.self_bytes).sum(axis=0),
    )


def engine_cost(
    cluster: ClusterSpec,
    plan: Union[GlobalPlan, RoundTable],
    backend: str = "alltoallw",
) -> EngineCost:
    """Model one full redistribution of ``plan`` (its planned rounds, or an
    executed table) under ``backend`` on ``cluster``.

    ``backend`` is ``"alltoallw"``, ``"p2p"``, ``"auto"``, or ``"bounded"``
    — the same names ``Redistributor(backend=...)`` accepts.
    """
    check_backend(backend)
    table = _table(plan)
    bytes_out, messages = table.bytes_out.tolist(), table.messages.tolist()

    alpha_s = 0.0
    message_s = 0.0
    transfer_s = 0.0
    round_engines = table.protocols(backend)
    for round_index, mode in enumerate(round_engines):
        if mode == "alltoallw":
            alpha_s += cluster.alpha(table.nprocs)
            payload = max(bytes_out[round_index], default=0)
            transfer_s += payload / cluster.effective_bw(payload)
        else:
            # The busiest rank sets the round time; attribute its handshake
            # and serialisation shares separately so the sum stays exact.
            worst_t = 0.0
            worst_msg = 0.0
            worst_xfer = 0.0
            for count, nbytes in zip(messages[round_index], bytes_out[round_index]):
                msg = count * P2P_PER_MESSAGE_S
                xfer = nbytes / cluster.effective_bw(nbytes)
                if msg + xfer > worst_t:
                    worst_t = msg + xfer
                    worst_msg = msg
                    worst_xfer = xfer
            message_s += worst_msg
            transfer_s += worst_xfer

    return EngineCost(
        backend=backend,
        rounds=table.nrounds,
        alpha_s=alpha_s,
        message_s=message_s,
        transfer_s=transfer_s,
        # Worst rank's local memcpy of the data it keeps across all rounds.
        self_copy_s=max(table.self_bytes.tolist(), default=0) / cluster.memcpy_bw,
        round_engines=tuple(round_engines),
    )
