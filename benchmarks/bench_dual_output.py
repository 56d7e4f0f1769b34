"""Bench: the paper's §IV-B closing proposals, quantified.

1. Dual-frequency output — raw at the coarse cadence plus in-transit JPEG
   at 10x the rate: "increase temporal resolution 10-fold, but only
   marginally increase data storage size".
2. Multi-variable streaming — "many other variables ... achieving similar
   data compression".
"""

from __future__ import annotations

from repro.intransit import PipelineConfig, run_pipeline
from repro.lbm import LbmConfig
from repro.mpisim import run_spmd


def _run(config: PipelineConfig):
    results = run_spmd(
        config.m + config.n, lambda comm: run_pipeline(comm, config)
    )
    return next(r for r in results if r.role == "analysis_root")


def test_dual_frequency_storage():
    """20 analysis frames, raw kept every 10th: 10x temporal resolution."""
    config = PipelineConfig(
        lbm=LbmConfig(nx=324, ny=130), m=8, n=4,
        steps=1000, output_every=50, raw_every_frames=10,
    )
    root = _run(config)
    raw_only = root.dual_raw_bytes  # what the raw-only coarse cadence costs
    dual = root.dual_total_bytes
    print(
        f"\nraw-only (every 10th frame): {raw_only / 1e6:.2f} MB; "
        f"dual (plus JPEG every frame): {dual / 1e6:.2f} MB "
        f"(+{100 * root.dual_overhead:.1f}%); "
        f"raw-every-frame would be {root.raw_bytes / 1e6:.2f} MB"
    )
    assert root.frames == 20
    # 10x temporal resolution for well under the cost of raw everywhere.
    assert dual < 0.5 * root.raw_bytes
    # The storage increase over raw-only is bounded ("marginal").
    assert root.dual_overhead < 1.5


def test_multivariable_compression():
    config = PipelineConfig(
        lbm=LbmConfig(nx=324, ny=130), m=8, n=4,
        steps=600, output_every=100,
        variables=("vorticity", "density", "speed"),
    )
    root = _run(config)
    per_var_raw = 324 * 130 * 4 * root.frames
    print("\nper-variable compression:")
    for name, nbytes in sorted(root.jpeg_bytes_by_variable.items()):
        print(f"  {name:>10}: {nbytes:8d} B JPEG vs {per_var_raw} B raw "
              f"({100 * (1 - nbytes / per_var_raw):.2f}% reduction)")
    for name, nbytes in root.jpeg_bytes_by_variable.items():
        assert 1 - nbytes / per_var_raw > 0.9, name
