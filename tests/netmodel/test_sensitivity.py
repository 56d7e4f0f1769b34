"""Sensitivity analysis tests (small-stack geometry to stay fast)."""

from __future__ import annotations

import pytest

from repro.io.assignment import StackGeometry
from repro.netmodel import (
    COOLEY,
    FITTED_PARAMETERS,
    crossover,
    figure3_series,
    headline_speedup,
    sweep_parameter,
    tornado,
)

# A reduced geometry with the paper's structure (images >> procs).
STACK = StackGeometry(width=1024, height=512, n_images=512, bytes_per_pixel=4)
SCALES = (8, 27, 64)


class TestHeadlines:
    def test_speedup_positive_and_large(self):
        speedup = headline_speedup(COOLEY, nprocs=27, stack=STACK)
        assert speedup > 2.0

    def test_crossover_returns_scale_or_none(self):
        result = crossover(figure3_series(COOLEY, STACK, SCALES))
        assert result in (*SCALES, None)


class TestSweep:
    def test_decode_rate_moves_speedup(self):
        points = sweep_parameter(
            "read_decode_bw", (0.5, 1.0, 2.0), cluster=COOLEY, stack=STACK
        )
        assert len(points) == 3
        speedups = [p.speedup_216 for p in points]
        # Slower decode -> reads dominate both paths -> DDR's read saving
        # matters more -> larger speedup.  Monotone in the factor.
        assert speedups[0] > speedups[1] > speedups[2]

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="not a fitted parameter"):
            sweep_parameter("nodes", (1.0,))

    def test_congestion_moves_crossover(self):
        """More congestion penalizes big consecutive messages -> the
        crossover moves later (or disappears); less congestion moves it
        earlier.  Verified directionally on the reduced geometry."""
        lo = sweep_parameter("congestion_bytes", (0.05,), stack=STACK)[0]
        hi = sweep_parameter("congestion_bytes", (20.0,), stack=STACK)[0]

        def order(point):
            return point.crossover if point.crossover is not None else 10**9

        assert order(hi) <= order(lo)


class TestTornado:
    def test_all_parameters_covered_and_sorted(self):
        bars = tornado(cluster=COOLEY, stack=STACK)
        assert {bar.parameter for bar in bars} == set(FITTED_PARAMETERS)
        swings = [bar.swing for bar in bars]
        assert swings == sorted(swings, reverse=True)

    def test_decode_rate_is_dominant(self):
        """The read/decode rate sets both the baseline and the DDR read
        phase; it should be among the most influential constants."""
        bars = tornado(cluster=COOLEY, stack=STACK)
        top3 = [bar.parameter for bar in bars[:3]]
        assert "read_decode_bw" in top3

    def test_headline_robust_to_30pct_perturbations(self):
        """No single +-30% perturbation may destroy the order-of-magnitude
        speedup claim."""
        bars = tornado(cluster=COOLEY, stack=STACK)
        for bar in bars:
            assert bar.low_speedup > 2.0, bar
            assert bar.high_speedup > 2.0, bar
