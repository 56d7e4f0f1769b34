"""One module per workload; each exposes ``run(ctx) -> dict``."""

import time

from repro.mpisim import run_spmd

from harness import median
from inputs import RANKS


def _noop(comm) -> None:
    return None


def probe_launch_ms(repeats: int = 15) -> float:
    """``mpisim.launch_ms``: an empty ``run_spmd`` launch."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        run_spmd(RANKS, _noop)
        times.append(time.perf_counter() - started)
    return median(times) * 1e3
