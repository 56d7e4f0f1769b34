"""Harness for Figure 3 — strong scaling of parallel TIFF loading.

The paper plots Table II's three curves against a log3 process axis and
reads off two facts: both DDR variants scale strongly while no-DDR barely
improves, and the RR/consecutive ranking flips between 27 and 216.  This
harness regenerates the series, the derived scaling efficiencies, and an
ASCII rendition of the plot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..netmodel.predict import crossover, figure3_series
from .paperdata import TABLE2_SECONDS
from .report import format_table


@dataclass(frozen=True)
class ScalingSummary:
    mode: str
    times: list[float]
    speedup_27_to_216: float
    parallel_efficiency: float  # vs ideal 8x over the 27 -> 216 range


def scaling_summaries(series: dict[str, list[float]] | None = None) -> list[ScalingSummary]:
    if series is None:
        series = figure3_series()
    procs = series["nprocs"]
    ideal = procs[-1] / procs[0]
    out = []
    for mode in ("no_ddr", "ddr_round_robin", "ddr_consecutive"):
        times = series[mode]
        speedup = times[0] / times[-1]
        out.append(
            ScalingSummary(
                mode=mode,
                times=list(times),
                speedup_27_to_216=speedup,
                parallel_efficiency=speedup / ideal,
            )
        )
    return out


def ascii_plot(series: dict[str, list[float]] | None = None, width: int = 60) -> str:
    """Log-time strong-scaling plot, one row per (mode, process count)."""
    if series is None:
        series = figure3_series()
    lines = ["Figure 3 (reproduced): load time, log scale  [#] model  [p] paper"]
    tmax = max(max(series[m]) for m in ("no_ddr", "ddr_round_robin", "ddr_consecutive"))
    tmin = min(min(series[m]) for m in ("no_ddr", "ddr_round_robin", "ddr_consecutive"))
    span = math.log(tmax / tmin)

    def column(t: float) -> int:
        if not span:
            return 0
        raw = round((math.log(t / tmin) / span) * (width - 1))
        return min(max(raw, 0), width - 1)  # paper points may sit off-range

    for mode, label in (
        ("no_ddr", "noDDR "),
        ("ddr_round_robin", "DDR-RR"),
        ("ddr_consecutive", "DDR-C "),
    ):
        for index, nprocs in enumerate(series["nprocs"]):
            row = [" "] * width
            row[column(series[mode][index])] = "#"
            paper_value = TABLE2_SECONDS.get(nprocs)
            if paper_value is not None:
                paper_t = paper_value[("no_ddr", "ddr_round_robin", "ddr_consecutive").index(mode)]
                col = column(paper_t)
                row[col] = "p" if row[col] == " " else "*"
            lines.append(f"{label} P={nprocs:<4d} |{''.join(row)}|")
    return "\n".join(lines)


def report() -> str:
    series = figure3_series()
    summaries = scaling_summaries(series)
    table = [
        [s.mode, *[f"{t:.1f}" for t in s.times], f"{s.speedup_27_to_216:.2f}x",
         f"{100 * s.parallel_efficiency:.0f}%"]
        for s in summaries
    ]
    out = [
        format_table(
            ["mode", "27", "64", "125", "216", "speedup", "efficiency"],
            table,
            title="Figure 3 (reproduced): strong scaling, seconds",
        ),
        f"RR->consecutive crossover at P = {crossover(series)} (paper: 125)",
        "",
        ascii_plot(series),
    ]
    return "\n".join(out)
