"""Record ``lbm_golden_sha256.json`` from the ``repro`` on ``PYTHONPATH``.

A kernel PR records from *its parent* before touching the solver::

    PYTHONPATH=<parent checkout>/src python tests/lbm/record_golden.py --force --label <sha>

and the file must then pass, unedited, on the change
(``test_kernel_oracle.py::test_golden_digest``).  Each entry is the SHA-256 of
``f`` (interior per rank, concatenated in rank order) and of ``vorticity()``
after ``steps`` steps.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.lbm import DistributedLbm, LbmConfig, SerialLbm
from repro.mpisim import run_spmd

GOLDEN_PATH = Path(__file__).parent / "lbm_golden_sha256.json"

#: (ny, nx) -> steps; the big lattice is the benchmark's, the small ones put
#: one-row slabs, odd widths and a barrier cut by every slab boundary in play.
LATTICES = {(240, 600): 30, (37, 64): 60, (16, 40): 60, (9, 33): 60}
OBSTACLES = ("bar", "circle", "none")
RANKS = ("serial", 1, 2, 3, 4)


def case_key(ny: int, nx: int, obstacle: str, ranks) -> str:
    return f"{ny}x{nx}/{obstacle}/{ranks}"


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _rank(comm, config: LbmConfig, steps: int):
    sim = DistributedLbm(comm, config)
    sim.step(steps)
    return sim.interior.copy(), sim.vorticity()


def case_digests(ny: int, nx: int, obstacle: str, ranks, steps: int) -> dict[str, str]:
    config = LbmConfig(nx=nx, ny=ny, obstacle=obstacle)
    if ranks == "serial":
        sim = SerialLbm(config)
        sim.step(steps)
        f, curl = sim.f, sim.vorticity()
    else:
        pieces = run_spmd(ranks, _rank, config, steps, deadlock_timeout=60.0)
        f = np.concatenate([piece[0] for piece in pieces], axis=1)
        curl = np.concatenate([piece[1] for piece in pieces], axis=0)
    return {"f": _sha(f), "vorticity": _sha(curl)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=GOLDEN_PATH)
    parser.add_argument("--force", action="store_true", help="overwrite an existing file")
    parser.add_argument("--label", default="", help="commit recorded from, for the header")
    args = parser.parse_args(argv)
    if args.out.exists() and not args.force:
        print(f"{args.out} exists; re-record only from a parent tree, with --force",
              file=sys.stderr)
        return 2
    digests = {
        case_key(ny, nx, obstacle, ranks): case_digests(ny, nx, obstacle, ranks, steps)
        for (ny, nx), steps in LATTICES.items()
        for obstacle in OBSTACLES
        for ranks in RANKS
    }
    record = {
        "header": {
            "numpy": np.__version__,
            "recorded_from": args.label,
            "steps": {f"{ny}x{nx}": steps for (ny, nx), steps in LATTICES.items()},
        },
        "digests": digests,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
