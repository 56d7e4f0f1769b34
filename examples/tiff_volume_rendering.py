#!/usr/bin/env python3
"""Use case 1: parallel visualization of 3-D medical images (paper §IV-A).

Generates a synthetic CT stack (the "primate tooth" phantom standing in for
the paper's APS scan), loads it in parallel three ways — the no-DDR
baseline plus DDR with round-robin and consecutive file assignment —
renders each rank's near-cubic block with direct volume rendering, and
composites the Figure-2-style image on rank 0.

Run:  python examples/tiff_volume_rendering.py [--size 96 64 48] [--ranks 8]
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.imaging import VolumeSpec, tooth_slice, write_stack
from repro.io import Assignment, load_stack_ddr, load_stack_no_ddr
from repro.jpeg import encode_rgb
from repro.mpisim import run_spmd
from repro.viz import write_ppm
from repro.volren import (
    TOOTH_TF,
    composite_distributed,
    grid_shape,
    render_block,
    rgba_to_rgb,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", nargs=3, type=int, default=[96, 64, 48],
                        metavar=("W", "H", "D"), help="phantom dimensions")
    parser.add_argument("--ranks", type=int, default=8)
    parser.add_argument("--out", type=Path, default=Path("tooth_render"))
    args = parser.parse_args()

    width, height, depth = args.size
    spec = VolumeSpec(width, height, depth, np.uint16)
    vmax = float(np.iinfo(np.uint16).max)

    workdir = Path(tempfile.mkdtemp(prefix="ddr_tiff_"))
    print(f"writing {depth} synthetic CT slices ({width}x{height} uint16) to {workdir} ...")
    stack = write_stack(workdir, depth, lambda z: tooth_slice(spec, z))

    grid = grid_shape(args.ranks, (width, height, depth))
    print(f"{args.ranks} ranks -> process grid {grid} (near-cubic blocks)")

    def load_and_render(comm, mode):
        if mode == "no_ddr":
            block = load_stack_no_ddr(comm, stack, grid)
        else:
            strategy = (
                Assignment.ROUND_ROBIN if mode == "rr" else Assignment.CONSECUTIVE
            )
            block = load_stack_ddr(comm, stack, grid, strategy)
        partial = render_block(
            block.data.astype(np.float64), TOOTH_TF, vmin=0.0, vmax=vmax
        )
        frame = composite_distributed(
            comm, block.box, partial, (width, height, depth), axis="z"
        )
        return frame, block.read_s, block.exchange_s

    args.out.mkdir(parents=True, exist_ok=True)
    frames = {}
    for mode, label in (("no_ddr", "no DDR"), ("rr", "DDR round-robin"),
                        ("consec", "DDR consecutive")):
        start = time.perf_counter()
        results = run_spmd(args.ranks, load_and_render, mode)
        elapsed = time.perf_counter() - start
        read_s = max(r[1] for r in results)
        exchange_s = max(r[2] for r in results)
        frames[mode] = results[0][0]
        print(
            f"{label:>16}: total {elapsed:6.2f}s  "
            f"(max read {read_s:5.2f}s, max exchange {exchange_s:5.2f}s)"
        )

    for a, b in (("no_ddr", "rr"), ("rr", "consec")):
        same = np.allclose(frames[a], frames[b], atol=5e-3)
        print(f"renders {a} vs {b} agree: {same}")

    rgb = rgba_to_rgb(frames["consec"], background=(0.05, 0.05, 0.08))
    ppm_path = args.out / "tooth.ppm"
    jpg_path = args.out / "tooth.jpg"
    write_ppm(ppm_path, rgb)
    jpg_path.write_bytes(encode_rgb(rgb, quality=90))
    print(f"Figure-2-style render written to {ppm_path} and {jpg_path}")


if __name__ == "__main__":
    main()
