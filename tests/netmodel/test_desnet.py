"""Discrete-event network simulator: fairness and conservation checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Box, compute_global_plan
from repro.netmodel import (
    COOLEY,
    Flow,
    default_rank_to_node,
    flows_for_round,
    maxmin_rates,
    simulate_exchange,
    simulate_flows,
)


class TestMaxminRates:
    def test_single_flow_gets_full_link(self):
        rates = maxmin_rates([(0, 1, 100.0)], {0: 10.0, 1: 10.0}, {0: 10.0, 1: 10.0})
        assert rates.tolist() == [10.0]

    def test_egress_shared_equally(self):
        flows = [(0, 1, 100.0), (0, 2, 100.0)]
        caps = {n: 10.0 for n in range(3)}
        rates = maxmin_rates(flows, caps, dict(caps))
        assert rates.tolist() == [5.0, 5.0]

    def test_ingress_bottleneck(self):
        flows = [(1, 0, 100.0), (2, 0, 100.0), (3, 0, 100.0)]
        caps = {n: 9.0 for n in range(4)}
        rates = maxmin_rates(flows, caps, dict(caps))
        assert rates.tolist() == [3.0, 3.0, 3.0]

    def test_maxmin_reallocates_slack(self):
        """Flow A is limited to 2 by its egress; flow B should pick up the
        slack at the shared ingress (max-min, not equal split)."""
        flows = [(0, 2, 100.0), (1, 2, 100.0)]
        egress = {0: 2.0, 1: 50.0, 2: 50.0}
        ingress = {0: 10.0, 1: 10.0, 2: 10.0}
        rates = maxmin_rates(flows, egress, ingress)
        assert rates[0] == pytest.approx(2.0)
        assert rates[1] == pytest.approx(8.0)


class TestSimulateFlows:
    def test_serial_bytes_over_link(self):
        t = simulate_flows([Flow(0, 1, 7e9)], 7e9)
        assert t == pytest.approx(1.0)

    def test_empty(self):
        assert simulate_flows([], 7e9) == 0.0

    def test_zero_byte_flows_ignored(self):
        assert simulate_flows([Flow(0, 1, 0)], 7e9) == 0.0

    def test_unequal_flows_complete_in_phases(self):
        """Two flows share egress; after the short one ends the long one
        speeds up: total time < serialized, > bandwidth-fair lower bound."""
        t = simulate_flows([Flow(0, 1, 7e9), Flow(0, 2, 3.5e9)], 7e9)
        # Phase 1: both at 3.5 GB/s until the small flow ends at t=1.0
        # (3.5e9 bytes).  Large flow has 3.5e9 left, now at 7 GB/s: +0.5 s.
        assert t == pytest.approx(1.5)

    def test_conservation_total_time_bounded(self):
        rng = np.random.default_rng(42)
        flows = [
            Flow(int(rng.integers(0, 4)), int(rng.integers(4, 8)), float(rng.integers(1, 10) * 1e8))
            for _ in range(20)
        ]
        t = simulate_flows(flows, 7e9)
        total = sum(f.nbytes for f in flows)
        # Lower bound: all 8 NICs busy continuously; upper: one NIC serial.
        assert total / (8 * 7e9) <= t <= total / 7e9 + 1e-9


class TestFlowsFromPlan:
    def _plan(self):
        owns = [[Box((0, r), (8, 1)), Box((0, r + 4), (8, 1))] for r in range(4)]
        needs = [Box((4 * (r % 2), 4 * (r // 2)), (4, 4)) for r in range(4)]
        return compute_global_plan(owns, needs, 4)

    def test_intra_node_flows_excluded(self):
        plan = self._plan()
        mapping = default_rank_to_node(4, 2)  # ranks 0,1 node 0; 2,3 node 1
        flows = flows_for_round(plan, 0, mapping)
        for f in flows:
            assert f.src_node != f.dst_node

    def test_all_nodes_distinct_keeps_all_remote_traffic(self):
        plan = self._plan()
        flows = flows_for_round(plan, 0, [0, 1, 2, 3])
        total = sum(f.nbytes for f in flows)
        assert total == plan.table.bytes_out[0].sum()

    def test_simulate_exchange_positive(self):
        plan = self._plan()
        t = simulate_exchange(COOLEY, plan)
        assert t > 0
        # two rounds of alpha at minimum
        assert t >= 2 * COOLEY.alpha(4)

    def test_engine_changes_only_software_overhead(self):
        # The same bytes cross the same NICs under every engine; only the
        # per-round software term (alpha vs per-message handshakes) differs.
        plan = self._plan()
        a2a = simulate_exchange(COOLEY, plan, engine="alltoallw")
        p2p = simulate_exchange(COOLEY, plan, engine="p2p")
        auto = simulate_exchange(COOLEY, plan, engine="auto")
        assert a2a != p2p
        assert auto == pytest.approx(min(a2a, p2p), rel=1e-9) or (
            min(a2a, p2p) <= auto <= max(a2a, p2p)
        )

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            simulate_exchange(COOLEY, self._plan(), engine="carrier-pigeon")
