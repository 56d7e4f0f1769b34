"""Bench: Table II — TIFF stack load time.

Model scale reproduces the paper's rows through the calibrated Cooley
model; native scale really executes all three loaders on a reduced stack
and checks the structural facts that do not depend on the cluster: DDR
reads each image once, the baseline reads redundantly, and all strategies
produce identical blocks.
"""

from __future__ import annotations

import pytest

from repro.bench import table2
from repro.bench.paperdata import TABLE2_SECONDS


def test_model_rows_match_paper_shape():
    rows = table2.table2_model_rows()
    print("\n" + table2.report_model())
    by_procs = {r.nprocs: r for r in rows}

    for nprocs, (paper_no_ddr, paper_rr, paper_consec) in TABLE2_SECONDS.items():
        row = by_procs[nprocs]
        # Within 25-30% of the paper's absolute seconds (calibrated model).
        assert row.no_ddr_s == pytest.approx(paper_no_ddr, rel=0.25)
        assert row.rr_s == pytest.approx(paper_rr, rel=0.25)
        assert row.consec_s == pytest.approx(paper_consec, rel=0.30)

    # Structural facts the paper highlights:
    assert by_procs[27].rr_s < by_procs[27].consec_s  # RR wins small scale
    tie = by_procs[64]  # paper: 18.9 s both
    assert abs(tie.rr_s - tie.consec_s) < 0.05 * max(tie.rr_s, tie.consec_s)
    assert by_procs[216].consec_s < by_procs[216].rr_s  # consec wins large
    assert by_procs[125].consec_s < by_procs[125].rr_s
    speedup = by_procs[216].no_ddr_s / by_procs[216].consec_s
    assert speedup > 15  # paper: 24.9x


def test_native_execution(native_stack):
    row = table2.table2_native(native_stack)
    print("\n" + table2.report_native(native_stack))
    assert row.verified_equal
    # The structural fact behind Table II: DDR decodes each of the 32
    # images exactly once, while the baseline decodes g^2 = 4x as many
    # (every rank decodes every slice its block touches).
    assert row.rr_decodes == 32
    assert row.consec_decodes == 32
    assert row.no_ddr_decodes == 4 * 32
