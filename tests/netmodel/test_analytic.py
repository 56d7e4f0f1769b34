"""Analytic exchange-cost model unit tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Box, Redistributor, compute_global_plan, round_protocol
from repro.core.engine import executed_rounds
from repro.io import Assignment, StackGeometry
from repro.netmodel import (
    COOLEY,
    P2P_PER_MESSAGE_S,
    engine_cost,
    executed_plan,
    predict_ddr,
)
from repro.mpisim import BYTE
from repro.utils.membudget import budget_scope
from tests.conftest import engine_choices, slab_exchange, spmd
from tests.core.test_reorganize_property import state_mover_problem


def simple_plan(nprocs=4, n=16, esize=4):
    """1-D reversal: rank r owns block r, needs block nprocs-1-r."""
    per = n // nprocs
    owns = [[Box((r * per,), (per,))] for r in range(nprocs)]
    needs = [Box(((nprocs - 1 - r) * per,), (per,)) for r in range(nprocs)]
    return compute_global_plan(owns, needs, esize)


def round_payloads(plan):
    """Max bytes any rank sends to others in each planned round."""
    return plan.table.bytes_out.max(axis=1, initial=0).tolist()


class TestRoundPayloads:
    def test_reversal_payload(self):
        plan = simple_plan()
        payloads = round_payloads(plan)
        assert len(payloads) == 1
        # Every rank ships its whole block to another rank (n=16, per=4, 4B).
        assert payloads[0] == 4 * 4

    def test_self_heavy_plan_has_small_payload(self):
        """Identity redistribution: everything stays local, nothing on the
        wire."""
        owns = [[Box((r * 4,), (4,))] for r in range(4)]
        needs = [Box((r * 4,), (4,)) for r in range(4)]
        plan = compute_global_plan(owns, needs, 4)
        assert round_payloads(plan) == [0]

    def test_uneven_rounds(self):
        owns = [
            [Box((0,), (4,)), Box((8,), (4,))],
            [Box((4,), (4,)), Box((12,), (4,))],
        ]
        needs = [Box((8,), (8,)), Box((0,), (8,))]
        plan = compute_global_plan(owns, needs, 1)
        payloads = round_payloads(plan)
        assert len(payloads) == 2
        assert all(p > 0 for p in payloads)


def wire_s(cost):
    """The direct path's wire time: handshakes plus serialisation."""
    return cost.message_s + cost.transfer_s


class TestExchangeCost:
    def test_identity_plan_costs_only_alpha_and_memcpy(self):
        owns = [[Box((r * 4,), (4,))] for r in range(4)]
        needs = [Box((r * 4,), (4,)) for r in range(4)]
        plan = compute_global_plan(owns, needs, 4)
        cost = engine_cost(COOLEY, plan)
        assert cost.transfer_s == 0.0 and cost.message_s == 0.0
        assert cost.alpha_s == pytest.approx(COOLEY.alpha(4))
        assert cost.self_copy_s > 0
        assert cost.round_engines == ("alltoallw",)

    def test_more_data_costs_more(self):
        small = engine_cost(COOLEY, simple_plan(n=64))
        large = engine_cost(COOLEY, simple_plan(n=64_000))
        assert large.transfer_s > small.transfer_s

    def test_more_ranks_cost_more_alpha(self):
        few = engine_cost(COOLEY, simple_plan(nprocs=2, n=64))
        many = engine_cost(COOLEY, simple_plan(nprocs=8, n=64))
        assert many.alpha_s > few.alpha_s

    def test_congestion_penalises_huge_messages(self):
        """Effective seconds/byte must grow with message size."""
        mid = simple_plan(nprocs=2, n=2**20)
        big = simple_plan(nprocs=2, n=2**28)
        t_mid = engine_cost(COOLEY, mid).transfer_s
        t_big = engine_cost(COOLEY, big).transfer_s
        bytes_mid = round_payloads(mid)[0]
        bytes_big = round_payloads(big)[0]
        assert t_big / bytes_big > t_mid / bytes_mid


class TestPointToPointCost:
    def test_sparse_pattern_cheaper_than_collective(self):
        """Reversal: each rank has exactly one partner, so the direct
        backend avoids the O(P) alpha."""
        plan = simple_plan(nprocs=8, n=1024)
        cost = engine_cost(COOLEY, plan, "p2p")
        assert wire_s(cost) < engine_cost(COOLEY, plan).total_s
        assert cost.alpha_s == 0.0
        assert cost.message_s == pytest.approx(P2P_PER_MESSAGE_S)  # one partner
        assert cost.round_engines == ("p2p",)

    def test_identity_is_nearly_free(self):
        owns = [[Box((r * 4,), (4,))] for r in range(4)]
        needs = [Box((r * 4,), (4,)) for r in range(4)]
        plan = compute_global_plan(owns, needs, 4)
        assert wire_s(engine_cost(COOLEY, plan, "p2p")) == pytest.approx(0.0)


class TestEngineCost:
    def test_auto_picks_cheapest_protocol_per_round(self):
        # Reversal is maximally sparse (one partner per rank): auto must
        # price it as the direct path, below the collective's.
        plan = simple_plan(nprocs=8, n=4096)
        auto = engine_cost(COOLEY, plan, "auto")
        assert auto.round_engines == ("p2p",)
        assert auto.total_s <= engine_cost(COOLEY, plan, "alltoallw").total_s

    def test_auto_prices_dense_plan_as_collective(self):
        owns = [[Box((r,), (1,))] for r in range(8)]
        needs = [Box((0,), (8,)) for _ in range(8)]
        plan = compute_global_plan(owns, needs, 4)
        auto = engine_cost(COOLEY, plan, "auto")
        assert auto.round_engines == ("alltoallw",)
        assert auto.total_s == engine_cost(COOLEY, plan, "alltoallw").total_s

    @pytest.mark.parametrize("dense", [False, True], ids=["ring", "transpose"])
    def test_auto_rounds_equal_the_executed_choices(self, dense):
        nprocs = 8
        owns, needs = slab_exchange(nprocs, 64, dense)

        def fn(comm):
            red = Redistributor(comm, ndims=2, dtype=np.float32, backend="auto")
            red.setup(own=owns[comm.rank], need=needs[comm.rank])
            return engine_choices(red)

        predicted = engine_cost(COOLEY, compute_global_plan(owns, needs, 4), "auto")
        assert predicted.round_engines == (("alltoallw",) if dense else ("p2p",))
        assert spmd(nprocs, fn) == [list(predicted.round_engines)] * nprocs

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            engine_cost(COOLEY, simple_plan(), "smoke-signals")


def conserved(executed, plan):
    """Every rank sends and keeps, over all executed rounds, what it planned to."""
    return np.array_equal(executed.bytes_out.sum(axis=0), plan.table.bytes_out.sum(axis=0)) and (
        np.array_equal(executed.self_bytes, plan.table.self_bytes)
    )


class TestExecutedPlan:
    """Pricing what the engine runs: the executed rounds' table — merged per
    protocol, cut into piece-rounds under a limit below one round."""

    def plan(self, rows=1):
        # 8 ranks, ``rows`` 64-cell rows each per round, 4 rounds, needed as columns.
        owns = [[Box((0, rows * (r + 8 * k)), (64, rows)) for k in range(4)] for r in range(8)]
        needs = [Box((8 * r, 0), (8, 32 * rows)) for r in range(8)]
        return compute_global_plan(owns, needs, element_size=4)

    def test_merges_per_backend_and_conserves_bytes(self):
        plan = self.plan()
        assert plan.nrounds == 4
        for backend, executed in (("alltoallw", 1), ("p2p", 1), ("auto", 1), ("bounded", 1)):
            merged = executed_plan(plan, backend)
            assert merged.nrounds == executed and plan.nrounds == 4
            assert conserved(merged, plan)

    def test_cap_bounds_every_merged_round_and_prices_between(self):
        plan = self.plan()
        capped = executed_plan(plan, limit_bytes=2 * max(plan.staged))
        assert capped.nrounds == 2 and conserved(capped, plan)
        costs = [
            engine_cost(COOLEY, p).alpha_s for p in (plan, capped, executed_plan(plan))
        ]
        assert costs[0] == 2 * costs[1] == 4 * costs[2]  # one alpha(P) per executed round

    @pytest.mark.parametrize("backend", ["auto", "bounded"])
    def test_limit_below_one_round_prices_at_most_k_times_the_messages(self, backend):
        plan = self.plan(rows=4)
        staged = plan.staged[0]
        lowered = executed_plan(plan, backend, limit_bytes=staged // 2)
        k = 4  # ceil(staged / (limit // 2)), and lanes are four rows tall
        assert lowered.nrounds == k * plan.nrounds and conserved(lowered, plan)
        cost = engine_cost(COOLEY, lowered, backend)
        planned = engine_cost(COOLEY, plan, backend)
        # A piece is priced by its round's protocol: auto's dense rounds stay
        # collective, one alpha(P) a piece; bounded's pieces are direct.
        assert set(cost.round_engines) == set(planned.round_engines)
        if backend == "auto":
            assert cost.message_s == 0 and cost.alpha_s == pytest.approx(k * planned.alpha_s)
        else:
            assert cost.alpha_s == 0
            assert planned.message_s < cost.message_s <= k * planned.message_s
        messages, whole = lowered.messages.sum(axis=0), plan.table.messages.sum(axis=0)
        assert (whole < messages).all() and (messages <= k * whole).all()
        # Every backend cuts alike; whole only where no lane has a second row.
        for other in ("alltoallw", "p2p"):
            assert executed_plan(plan, other, limit_bytes=staged // 2).nrounds == lowered.nrounds
        assert executed_plan(self.plan(), backend, limit_bytes=1).nrounds == plan.nrounds

    @pytest.mark.parametrize("budget", ["none", "between", "below"])
    @pytest.mark.parametrize("backend", ["alltoallw", "p2p", "auto", "bounded"])
    @pytest.mark.parametrize("problem", ["columns", "state mover"])
    def test_prices_the_rounds_a_live_redistributor_runs(self, problem, backend, budget):
        """The executed table against what set-up builds for ``execute`` on
        every rank under the same budget: round count, groups and pieces,
        protocol and bytes out, round by round."""
        if problem == "columns":
            plan = self.plan(rows=4)
        else:
            _, owns, needs = state_mover_problem()
            plan = compute_global_plan(owns, needs, element_size=4)
        limit = {"none": None, "between": 2 * max(plan.staged), "below": max(plan.staged) // 2}
        table = executed_plan(plan, backend, limit[budget])
        ranks = plan.rank_plans()

        def fn(comm):
            rows = ranks[comm.rank]
            red = Redistributor(comm, ndims=plan.ndims, dtype=np.float32, backend=backend)
            red.setup(own=rows.own_boxes(), need=rows.need_box())
            return [
                (r.members, r.piece, r.pieces, round_protocol(backend, r), r.bytes_out)
                for r in executed_rounds(red.mapping, backend, zero_copy=False)
            ]

        with budget_scope(limit_bytes=limit[budget]):
            live = spmd(plan.nprocs, fn)
        assert table.nrounds > (budget == "below")  # pieces, when the budget binds
        for rank, rounds in enumerate(live):
            expected = ranks[rank].executed(backend, limit[budget], BYTE, 4, {})
            assert [r[:3] for r in rounds] == [(r.members, r.piece, r.pieces) for r in expected]
            assert [r[3] for r in rounds] == table.protocols(backend)
            assert [r[4] for r in rounds] == table.bytes_out[:, rank].tolist()

    @pytest.mark.parametrize("backend", ["alltoallw", "p2p", "auto", "bounded"])
    def test_every_backend_prices(self, backend):
        stack = StackGeometry(width=256, height=128, n_images=64, bytes_per_pixel=4)

        def seconds(name):
            return predict_ddr(COOLEY, 8, Assignment.ROUND_ROBIN, stack, name).exchange_s

        both = sorted(seconds(name) for name in ("alltoallw", "p2p"))
        assert both[0] < both[1] and both[0] <= seconds(backend) <= both[1]
        if backend == "bounded":  # no limit given: exactly the direct sends it runs
            assert seconds("bounded") == seconds("p2p")
        with pytest.raises(ValueError, match="unknown"):
            seconds("carrier-pigeon")
