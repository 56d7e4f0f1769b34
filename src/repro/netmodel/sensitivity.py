"""Sensitivity analysis of the calibrated performance model.

Table II's qualitative claims (DDR >> no-DDR; round-robin/consecutive
crossover between 64 and 125 ranks; ~25x headline speedup) should be robust
to the fitted constants, not knife-edge artifacts of the calibration.
These tools quantify that: parameter sweeps, crossover tracking, and a
tornado summary of which constant moves the headline most.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..io.assignment import PAPER_STACK, Assignment, StackGeometry
from .cluster import COOLEY, ClusterSpec
from .predict import crossover, figure3_series, predict_ddr, predict_no_ddr

#: The fitted (non-physical) constants eligible for perturbation.
FITTED_PARAMETERS = (
    "read_decode_bw",
    "file_open_s",
    "fs_peak_bw",
    "fs_saturation_exp",
    "alltoallw_alpha_base",
    "alltoallw_alpha_per_rank",
    "congestion_bytes",
    "memcpy_bw",
)


def headline_speedup(
    cluster: ClusterSpec,
    nprocs: int = 216,
    stack: StackGeometry = PAPER_STACK,
) -> float:
    """no-DDR time over best-DDR time at ``nprocs`` (paper: 24.9x at 216)."""
    no_ddr = predict_no_ddr(cluster, nprocs, stack).total_s
    rr = predict_ddr(cluster, nprocs, Assignment.ROUND_ROBIN, stack).total_s
    consec = predict_ddr(cluster, nprocs, Assignment.CONSECUTIVE, stack).total_s
    return no_ddr / min(rr, consec)


@dataclass(frozen=True)
class SweepPoint:
    parameter: str
    value: float
    speedup_216: float
    crossover: int | None


def sweep_parameter(
    parameter: str,
    factors: Sequence[float],
    cluster: ClusterSpec = COOLEY,
    stack: StackGeometry = PAPER_STACK,
) -> list[SweepPoint]:
    """Scale one fitted parameter by each factor; track the two headlines."""
    if parameter not in FITTED_PARAMETERS:
        raise ValueError(
            f"{parameter!r} is not a fitted parameter (options: {FITTED_PARAMETERS})"
        )
    base = getattr(cluster, parameter)
    out = []
    for factor in factors:
        perturbed = cluster.with_(**{parameter: base * factor})
        out.append(
            SweepPoint(
                parameter=parameter,
                value=base * factor,
                speedup_216=headline_speedup(perturbed, stack=stack),
                crossover=crossover(figure3_series(perturbed, stack)),
            )
        )
    return out


@dataclass(frozen=True)
class TornadoBar:
    parameter: str
    low_speedup: float  # at 0.7x the fitted value
    high_speedup: float  # at 1.3x

    @property
    def swing(self) -> float:
        return abs(self.high_speedup - self.low_speedup)


def tornado(
    cluster: ClusterSpec = COOLEY,
    stack: StackGeometry = PAPER_STACK,
    spread: float = 0.3,
) -> list[TornadoBar]:
    """+-``spread`` perturbation of every fitted constant, ranked by the
    swing it induces in the 216-rank headline speedup."""
    bars = []
    for parameter in FITTED_PARAMETERS:
        base = getattr(cluster, parameter)
        low = cluster.with_(**{parameter: base * (1 - spread)})
        high = cluster.with_(**{parameter: base * (1 + spread)})
        bars.append(
            TornadoBar(
                parameter=parameter,
                low_speedup=headline_speedup(low, stack=stack),
                high_speedup=headline_speedup(high, stack=stack),
            )
        )
    bars.sort(key=lambda bar: bar.swing, reverse=True)
    return bars
