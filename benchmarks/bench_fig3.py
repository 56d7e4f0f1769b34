"""Bench: Figure 3 — strong scaling of parallel TIFF loading."""

from __future__ import annotations

from repro.bench import fig3
from repro.netmodel import crossover


def test_strong_scaling_series():
    series = fig3.figure3_series()
    print("\n" + fig3.report())

    # Both DDR curves decrease monotonically over 27 -> 216 (strong scaling).
    for mode in ("ddr_round_robin", "ddr_consecutive"):
        times = series[mode]
        assert all(a > b for a, b in zip(times, times[1:])), mode

    # no-DDR barely scales: less than 2x over an 8x process increase.
    no_ddr = series["no_ddr"]
    assert no_ddr[0] / no_ddr[-1] < 2.0

    # DDR-consecutive achieves near-ideal strong scaling at large scale:
    # the paper's curve drops ~7.5x over the 8x range.
    consec = series["ddr_consecutive"]
    assert consec[0] / consec[-1] > 5.0


def test_crossover_location():
    # Paper: RR wins at 27, tie at 64, consecutive wins by 125.
    assert crossover(fig3.figure3_series()) in (64, 125)


def test_scaling_summaries():
    summaries = fig3.scaling_summaries()
    by_mode = {s.mode: s for s in summaries}
    assert by_mode["ddr_consecutive"].parallel_efficiency > 0.6
    assert by_mode["no_ddr"].parallel_efficiency < 0.25
