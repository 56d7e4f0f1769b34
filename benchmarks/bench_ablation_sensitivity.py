"""Ablation: robustness of the Table II conclusions to model calibration.

Sweeps the fitted Cooley constants and checks the paper's qualitative
claims survive: order-of-magnitude DDR speedup, and a round-robin ->
consecutive crossover that moves with (but is not destroyed by) the
congestion constant.
"""

from __future__ import annotations

from repro.io.assignment import StackGeometry
from repro.netmodel import COOLEY, headline_speedup, sweep_parameter, tornado

STACK = StackGeometry(width=1024, height=512, n_images=512, bytes_per_pixel=4)


def test_tornado_ranking():
    bars = tornado(cluster=COOLEY, stack=STACK)
    print("\nheadline-speedup tornado (+-30% per fitted constant):")
    for bar in bars:
        print(
            f"  {bar.parameter:>24}: {bar.low_speedup:6.1f}x .. {bar.high_speedup:6.1f}x "
            f"(swing {bar.swing:5.1f})"
        )
    assert all(bar.low_speedup > 2.0 and bar.high_speedup > 2.0 for bar in bars)


def test_congestion_sweep():
    points = sweep_parameter("congestion_bytes", (0.1, 0.5, 1.0, 2.0, 10.0), stack=STACK)
    print("\ncongestion_bytes sweep:")
    for point in points:
        print(
            f"  C = {point.value / 1e6:8.1f} MB -> speedup {point.speedup_216:6.1f}x, "
            f"crossover P = {point.crossover}"
        )
    # The speedup claim holds across two orders of magnitude of C.
    assert all(point.speedup_216 > 2.0 for point in points)


def test_headline_at_calibration():
    speedup = headline_speedup(cluster=COOLEY, stack=STACK)
    assert speedup > 2.0
