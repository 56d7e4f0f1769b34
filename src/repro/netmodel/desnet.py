"""Discrete-event network simulation with max-min fair link sharing.

A mechanistic alternative to the closed-form congestion factor in
``analytic.py``: every (source rank -> destination rank) transfer of a round
becomes a *flow*; each node has finite egress and ingress NIC capacity (the
paper's single 56 Gbps FDR link per node, full duplex); flow rates follow
max-min fairness via progressive filling, and the simulation advances from
flow completion to flow completion.

Used by the netmodel ablation bench to check that the analytic model's
round-robin/consecutive crossover is not an artifact of its functional form.
It reads a plan's planned rounds: the flows from its overlap rows, the
software term from its :class:`~repro.core.schedule.RoundTable`.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..core.engine import BACKENDS
from ..core.schedule import GlobalPlan
from .analytic import P2P_PER_MESSAGE_S
from .cluster import ClusterSpec


@dataclass
class Flow:
    """One transfer: ``nbytes`` from ``src_node``'s NIC to ``dst_node``'s."""

    src_node: int
    dst_node: int
    nbytes: float


def default_rank_to_node(nprocs: int, procs_per_node: int) -> list[int]:
    """Dense packing: ranks 0..k-1 on node 0, etc. (Cooley's default)."""
    return [rank // procs_per_node for rank in range(nprocs)]


def maxmin_rates(
    flows: list[tuple[int, int, float]],
    egress: dict[int, float],
    ingress: dict[int, float],
) -> np.ndarray:
    """Max-min fair rates via progressive filling.

    ``flows`` are (src_node, dst_node, remaining_bytes); each flow crosses
    exactly two links — its source's egress and its destination's ingress.
    Repeatedly find the most-constrained link, freeze its flows at the fair
    share, subtract, repeat.
    """
    n = len(flows)
    rates = np.zeros(n)
    frozen = np.zeros(n, dtype=bool)

    link_cap: dict[tuple[str, int], float] = {}
    link_flows: dict[tuple[str, int], list[int]] = {}
    for index, (src, dst, _) in enumerate(flows):
        link_flows.setdefault(("out", src), []).append(index)
        link_flows.setdefault(("in", dst), []).append(index)
    for kind, node in link_flows:
        link_cap[(kind, node)] = egress[node] if kind == "out" else ingress[node]

    active_links = dict(link_flows)
    while True:
        best_link = None
        best_share = np.inf
        for link, members in active_links.items():
            unfrozen = [i for i in members if not frozen[i]]
            if not unfrozen:
                continue
            share = link_cap[link] / len(unfrozen)
            if share < best_share:
                best_share = share
                best_link = link
        if best_link is None:
            break
        for index in active_links[best_link]:
            if frozen[index]:
                continue
            frozen[index] = True
            rates[index] = best_share
            src, dst, _ = flows[index]
            for link in (("out", src), ("in", dst)):
                if link != best_link:
                    link_cap[link] = max(0.0, link_cap[link] - best_share)
        del active_links[best_link]
    return rates


def simulate_flows(
    flows: list[Flow],
    link_bytes_per_s: float,
    max_events: int = 100_000,
) -> float:
    """Time until the last flow completes under max-min fair sharing."""
    remaining = [(f.src_node, f.dst_node, float(f.nbytes)) for f in flows if f.nbytes > 0]
    nodes = {f.src_node for f in flows} | {f.dst_node for f in flows}
    egress = {node: link_bytes_per_s for node in nodes}
    ingress = {node: link_bytes_per_s for node in nodes}

    clock = 0.0
    for _ in range(max_events):
        if not remaining:
            return clock
        rates = maxmin_rates(remaining, egress, ingress)
        if not np.all(rates > 0):
            raise RuntimeError("network simulation stalled: zero-rate flow")
        times = np.array([r[2] for r in remaining]) / rates
        dt = float(times.min())
        clock += dt
        survivors = []
        for (src, dst, nbytes), rate, t in zip(remaining, rates, times):
            if t > dt * (1 + 1e-12):
                survivors.append((src, dst, nbytes - rate * dt))
        remaining = survivors
    raise RuntimeError(f"network simulation exceeded {max_events} events")


def flows_for_round(
    plan: GlobalPlan,
    round_index: int,
    rank_to_node: list[int],
) -> list[Flow]:
    """Build the flow set of one exchange round from the plan's rows, in
    ``(owner, dest)`` order.

    Transfers between ranks on the same node never touch the NIC and are
    excluded (they are covered by the analytic model's memcpy term); so are
    self-transfers.
    """
    rnd, owner, dest = plan.overlaps[:3]
    first, stop = np.searchsorted(rnd, (round_index, round_index + 1))
    flows: list[Flow] = []
    for src, dst, nbytes in zip(
        owner[first:stop].tolist(), dest[first:stop].tolist(), plan.nbytes[first:stop].tolist()
    ):
        if rank_to_node[src] != rank_to_node[dst]:
            flows.append(Flow(rank_to_node[src], rank_to_node[dst], nbytes))
    return flows


def simulate_exchange(
    cluster: ClusterSpec,
    plan: GlobalPlan,
    rank_to_node: list[int] | None = None,
    engine: str = "alltoallw",
) -> float:
    """Total modeled exchange time: per-round DES transfer + software overhead.

    The wire transfers are engine-independent (the same bytes move between
    the same nodes); the engines differ in the per-round software term —
    ``alpha(P)`` for a collective round, one rendezvous handshake per
    message (serialised on the busiest rank) for a direct round.  ``engine``
    is a ``Redistributor(backend=...)`` name; which of the two a round is
    comes from the rule :func:`repro.core.schedule.round_protocol` applies
    in the executor, as in the analytic model.
    """
    if engine not in BACKENDS:
        raise ValueError(f"unknown engine {engine!r}; choose one of {sorted(BACKENDS)}")
    if rank_to_node is None:
        rank_to_node = default_rank_to_node(plan.nprocs, cluster.procs_per_node)
    table = plan.table
    total = 0.0
    for round_index, protocol in enumerate(table.protocols(engine)):
        if protocol == "alltoallw":
            total += cluster.alpha(plan.nprocs)
        else:
            worst_messages = max(table.messages[round_index].tolist(), default=0)
            total += worst_messages * P2P_PER_MESSAGE_S
        flows = flows_for_round(plan, round_index, rank_to_node)
        if flows:
            total += simulate_flows(flows, cluster.link_bytes_per_s)
    return total
