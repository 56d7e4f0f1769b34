"""Ablation: Alltoallw backend vs direct point-to-point backend.

The paper's future work (§V) proposes replacing ``MPI_Alltoallw`` with
direct sends when the communication pattern is sparse.  Both backends are
implemented; this bench measures them really executing the same plan, and
compares their modeled cost at full paper scale.
"""

from __future__ import annotations

import numpy as np

from repro.core import Box, Redistributor
from repro.io.assignment import Assignment, StackGeometry
from repro.mpisim.executor import run_spmd
from repro.netmodel import COOLEY, ddr_plan, engine_cost

NPROCS = 8
SIDE = 256  # 256x256 float32 = 256 KiB per rank slab


def _run_backend(backend: str) -> None:
    """Slabs -> near-square blocks on NPROCS thread ranks."""

    def fn(comm):
        rank, size = comm.rank, comm.size
        rows = SIDE // size
        red = Redistributor(comm, ndims=2, dtype=np.float32, backend=backend)
        own = [Box((0, rank * rows), (SIDE, rows))]
        half = SIDE // 2
        need = Box(((rank % 2) * half, (rank // 2) * (SIDE // (size // 2))),
                   (half, SIDE // (size // 2)))
        red.setup(own=own, need=need)
        data = np.full((rows, SIDE), rank, dtype=np.float32)
        return red.gather_need([data])

    run_spmd(NPROCS, fn)


def test_alltoallw_backend_native():
    _run_backend("alltoallw")


def test_p2p_backend_native():
    _run_backend("p2p")


def test_backends_produce_identical_blocks():
    def both():
        def fn(comm, backend):
            rank, size = comm.rank, comm.size
            rows = SIDE // size
            red = Redistributor(comm, ndims=2, dtype=np.float32, backend=backend)
            red.setup(
                own=[Box((0, rank * rows), (SIDE, rows))],
                need=Box((0, rank * rows), (SIDE, rows)),
            )
            rng = np.random.default_rng(rank)
            return red.gather_need([rng.random((rows, SIDE)).astype(np.float32)])

        a = run_spmd(NPROCS, fn, "alltoallw")
        b = run_spmd(NPROCS, fn, "p2p")
        return a, b

    a, b = both()
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_modeled_p2p_savings_at_full_scale():
    """At 216 procs, each rank talks to ~tens of partners, not 216: the
    direct backend avoids the O(P) collective posting overhead."""
    stack = StackGeometry(width=1024, height=512, n_images=512, bytes_per_pixel=4)

    def compare():
        plan = ddr_plan(64, Assignment.CONSECUTIVE, stack)
        p2p = engine_cost(COOLEY, plan, "p2p")
        return (
            engine_cost(COOLEY, plan, "alltoallw").total_s,
            p2p.message_s + p2p.transfer_s,  # wire time: the self-copy cancels
            max(plan.partners_per_rank()),
        )

    alltoallw_s, p2p_s, max_partners = compare()
    print(
        f"\nmodeled exchange @64 procs: alltoallw {alltoallw_s:.4f}s, "
        f"p2p {p2p_s:.4f}s, max partners/rank {max_partners}"
    )
    assert max_partners < 64  # the pattern is sparse ...
    assert p2p_s < alltoallw_s  # ... so direct sends win in the model


def test_p2p_message_count_is_sparse():
    """Count actual messages the p2p backend would send per rank."""

    def fn(comm):
        rank, size = comm.rank, comm.size
        rows = SIDE // size
        red = Redistributor(comm, ndims=2, dtype=np.float32, backend="p2p")
        half = SIDE // 2
        red.setup(
            own=[Box((0, rank * rows), (SIDE, rows))],
            need=Box(((rank % 2) * half, (rank // 2) * (SIDE // (size // 2))),
                     (half, SIDE // (size // 2))),
        )
        return int((red.mapping.plan.sends.dest != rank).sum())

    counts = run_spmd(NPROCS, fn)
    assert all(count <= NPROCS - 1 for count in counts)
    assert any(count < NPROCS - 1 for count in counts)  # genuinely sparse
