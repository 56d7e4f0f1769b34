"""Ablation: analytic congestion model vs discrete-event network simulation.

The Table II crossover (round-robin wins small scale, consecutive wins
large scale) should not be an artifact of the analytic model's functional
form; the max-min-fair DES provides an independent check.
"""

from __future__ import annotations

from repro.io.assignment import Assignment, StackGeometry
from repro.netmodel import COOLEY, ddr_plan, exchange_cost, simulate_exchange

STACK = StackGeometry(width=2048, height=1024, n_images=512, bytes_per_pixel=4)


def test_analytic_exchange_27():
    plan = ddr_plan(27, Assignment.CONSECUTIVE, STACK)
    result = exchange_cost(COOLEY, plan).total_s
    assert result > 0


def test_des_exchange_27():
    plan = ddr_plan(27, Assignment.CONSECUTIVE, STACK)
    result = simulate_exchange(COOLEY, plan)
    assert result > 0


def test_models_agree_on_strategy_ordering():
    """Both models must agree which strategy wins at each scale."""

    def orderings():
        out = {}
        for nprocs in (27, 64):
            rr = ddr_plan(nprocs, Assignment.ROUND_ROBIN, STACK)
            consec = ddr_plan(nprocs, Assignment.CONSECUTIVE, STACK)
            analytic = (
                exchange_cost(COOLEY, rr).total_s,
                exchange_cost(COOLEY, consec).total_s,
            )
            des = (
                simulate_exchange(COOLEY, rr),
                simulate_exchange(COOLEY, consec),
            )
            out[nprocs] = (analytic, des)
        return out

    results = orderings()
    for nprocs, (analytic, des) in results.items():
        print(
            f"\nP={nprocs}: analytic RR/consec = {analytic[0]:.3f}/{analytic[1]:.3f}s, "
            f"DES = {des[0]:.3f}/{des[1]:.3f}s"
        )
        analytic_winner = "rr" if analytic[0] < analytic[1] else "consec"
        des_winner = "rr" if des[0] < des[1] else "consec"
        assert analytic_winner == des_winner, f"models disagree at P={nprocs}"


def test_des_times_within_order_of_magnitude():
    def compare():
        plan = ddr_plan(27, Assignment.CONSECUTIVE, STACK)
        return exchange_cost(COOLEY, plan).total_s, simulate_exchange(COOLEY, plan)

    analytic, des = compare()
    ratio = analytic / des
    assert 0.1 < ratio < 10.0
