"""Harness for Table II — TIFF load time (no DDR vs DDR-RR vs DDR-consec).

Two modes:

* **model scale** — the paper's exact workload (4096 x 32 MiB images, 27 to
  216 processes) through the calibrated Cooley model; compared row-by-row
  against the paper's measured seconds.
* **native scale** — a real, reduced-size TIFF stack loaded through the
  actual code path (thread ranks, real decode, real ``Alltoallw``) with
  wall-clock timing; validates the *ordering* of the three strategies where
  modeling assumptions don't apply.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..imaging.stack import write_stack
from ..imaging.synthetic import VolumeSpec, tooth_slice
from ..io.assignment import Assignment
from ..io.stackload import load_stack_ddr, load_stack_no_ddr
from ..mpisim.executor import run_spmd
from ..netmodel import COOLEY, executed_plan
from ..netmodel.predict import PAPER_PROCESS_COUNTS, ddr_plan, predict_ddr, predict_table2
from .paperdata import TABLE2_SECONDS
from .report import format_table, pct, relative_error


@dataclass(frozen=True)
class Table2Row:
    nprocs: int
    no_ddr_s: float
    rr_s: float
    consec_s: float
    paper: tuple[float, float, float]


def table2_model_rows(network: str = "analytic") -> list[Table2Row]:
    """Full-scale modeled Table II."""
    rows = []
    for row in predict_table2(network=network):
        nprocs = row["nprocs"]
        rows.append(
            Table2Row(
                nprocs=nprocs,
                no_ddr_s=row["no_ddr_s"],
                rr_s=row["ddr_round_robin_s"],
                consec_s=row["ddr_consecutive_s"],
                paper=TABLE2_SECONDS[nprocs],
            )
        )
    return rows


def report_model(network: str = "analytic") -> str:
    rows = table2_model_rows(network)
    table = []
    for r in rows:
        table.append(
            [
                r.nprocs,
                r.no_ddr_s,
                r.paper[0],
                r.rr_s,
                r.paper[1],
                r.consec_s,
                r.paper[2],
                pct(relative_error(r.no_ddr_s / r.consec_s, r.paper[0] / r.paper[2])),
            ]
        )
    header = [
        "procs",
        "noDDR",
        "paper",
        "DDR-RR",
        "paper",
        "DDR-consec",
        "paper",
        "speedup err",
    ]
    footer = (
        f"\nmax modeled speedup: {max(r.no_ddr_s / r.consec_s for r in rows):.1f}x "
        f"(paper: 24.9x at 216 procs)"
    )
    return (
        format_table(header, table, title=f"Table II (reproduced, {network} model), seconds")
        + footer
    )


def report_executed(cap_bytes: int = 2 << 30) -> str:
    """An *extension* of the paper, not part of its reproduction: Table II's
    round-robin column re-priced for the schedule the engine executes —
    consecutive rounds merged into one message per peer, without a cap and
    under ``cap_bytes`` of staging per rank."""
    table = []
    for nprocs in PAPER_PROCESS_COUNTS:
        plan = ddr_plan(nprocs, Assignment.ROUND_ROBIN)
        cells = [
            predict_ddr(COOLEY, nprocs, Assignment.ROUND_ROBIN, plan=priced)
            for priced in (plan, executed_plan(plan), executed_plan(plan, limit_bytes=cap_bytes))
        ]
        table.append([nprocs] + [v for c in cells for v in (c.rounds, c.exchange_s, c.total_s)])
    header = ["procs"] + [
        f"{what} {column}"
        for what in ("planned", "merged", f"<= {cap_bytes >> 30} GiB")
        for column in ("rounds", "exch s", "load s")
    ]
    return format_table(
        header, table, title="Table II round-robin column as executed (extension), seconds"
    )


# ---------------------------------------------------------------------------
# Native scale: actually execute the loaders.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NativeTable2Row:
    nprocs: int
    no_ddr_s: float
    rr_s: float
    consec_s: float
    no_ddr_decodes: int
    rr_decodes: int
    consec_decodes: int
    verified_equal: bool


def prepare_native_stack(
    directory: Path, width: int = 96, height: int = 64, depth: int = 32
) -> Path:
    """Write the reduced-scale synthetic stack once; reused across runs."""
    target = Path(directory) / f"stack_{width}x{height}x{depth}"
    marker = target / f"slice_{depth - 1:05d}.tif"
    if not marker.exists():
        spec = VolumeSpec(width, height, depth, np.uint16)
        write_stack(target, depth, lambda z: tooth_slice(spec, z))
    return target


class _CountingStack:
    """TiffStack proxy that counts whole-image decodes (thread-safe via GIL
    list appends) — the structural quantity Table II's speedup comes from."""

    def __init__(self, stack) -> None:
        self._stack = stack
        self.decoded: list[int] = []

    def __getattr__(self, name):
        return getattr(self._stack, name)

    def read_slice(self, z: int, out: np.ndarray | None = None) -> np.ndarray:
        self.decoded.append(z)
        return self._stack.read_slice(z, out)


def table2_native(stack_dir: Path, nprocs: int = 8, grid=(2, 2, 2)) -> NativeTable2Row:
    """Run all three strategies for real: wall-clock + decode counts."""
    from ..imaging.stack import TiffStack

    def run(mode: str):
        stack = _CountingStack(TiffStack(stack_dir))

        def fn(comm):
            if mode == "no_ddr":
                return load_stack_no_ddr(comm, stack, grid)
            strategy = (
                Assignment.ROUND_ROBIN if mode == "rr" else Assignment.CONSECUTIVE
            )
            return load_stack_ddr(comm, stack, grid, strategy)

        start = time.perf_counter()
        blocks = run_spmd(nprocs, fn)
        elapsed = time.perf_counter() - start
        return elapsed, len(stack.decoded), blocks

    no_ddr_s, no_ddr_decodes, base_blocks = run("no_ddr")
    rr_s, rr_decodes, rr_blocks = run("rr")
    consec_s, consec_decodes, consec_blocks = run("consec")
    equal = all(
        np.array_equal(a.data, b.data) and np.array_equal(a.data, c.data)
        for a, b, c in zip(base_blocks, rr_blocks, consec_blocks)
    )
    return NativeTable2Row(
        nprocs,
        no_ddr_s,
        rr_s,
        consec_s,
        no_ddr_decodes,
        rr_decodes,
        consec_decodes,
        equal,
    )


def report_native(stack_dir: Path, nprocs: int = 8, grid=(2, 2, 2)) -> str:
    row = table2_native(stack_dir, nprocs, grid)
    table = [
        [
            row.nprocs,
            row.no_ddr_s,
            row.rr_s,
            row.consec_s,
            f"{row.no_ddr_decodes}/{row.rr_decodes}/{row.consec_decodes}",
            row.verified_equal,
        ]
    ]
    return format_table(
        ["procs", "noDDR s", "DDR-RR s", "DDR-consec s", "decodes", "blocks equal"],
        table,
        title="Table II (native scale, really executed)",
    )
