"""Bit identity of the scratch-owning D2Q9 kernel.

Two oracles.  ``reference_*`` below are the whole-lattice ``collide`` /
``stream`` / ``bounce_back`` the solvers ran until the kernel replaced them,
kept verbatim and compared with one kernel step as ``int64`` bit patterns.
``lbm_golden_sha256.json`` holds digests of ``f`` and ``vorticity()`` of whole
runs as those functions computed them (recorded at commit c603575 by
``record_golden.py``), which also pins the double buffer, the ghost exchange
and the boundaries.  The ``tracemalloc`` ceilings gate the design without a
clock: a lattice-sized temporary anywhere in a step is 2.6 MB.
"""

from __future__ import annotations

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lbm import CX, CY, N_DIRS, OPPOSITE, DistributedLbm, LbmConfig, SerialLbm, W, d2q9
from repro.lbm.d2q9 import Kernel
from tests.conftest import spmd
from tests.lbm.record_golden import GOLDEN_PATH, LATTICES, OBSTACLES, RANKS, case_digests, case_key

# -- the whole-lattice reference -----------------------------------------------------


def reference_equilibrium(rho, ux, uy):
    cu = CX[:, None, None] * ux[None] + CY[:, None, None] * uy[None]
    usq = ux * ux + uy * uy
    return rho[None] * W[:, None, None] * (
        1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * usq[None]
    )


def reference_macroscopics(f):
    rho = f.sum(axis=0)
    inv = 1.0 / rho
    ux = (f * CX[:, None, None]).sum(axis=0) * inv
    uy = (f * CY[:, None, None]).sum(axis=0) * inv
    return rho, ux, uy


def reference_collide(f, omega, skip=None):
    rho, ux, uy = reference_macroscopics(f)
    feq = reference_equilibrium(rho, ux, uy)
    if skip is None:
        f += omega * (feq - f)
    else:
        update = omega * (feq - f)
        update[:, skip] = 0.0
        f += update


def reference_stream(f):
    for i in range(1, N_DIRS):
        f[i] = np.roll(f[i], shift=(int(CY[i]), int(CX[i])), axis=(0, 1))


def reference_bounce_back(f, solid):
    f[:, solid] = f[OPPOSITE][:, solid]


def bits(array):
    return np.ascontiguousarray(array).view(np.int64)


# -- one step against the reference --------------------------------------------------


@st.composite
def lattices(draw):
    ny, nx = draw(st.integers(4, 70)), draw(st.integers(4, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = 0.02 + rng.random((N_DIRS, ny, nx)) * draw(st.sampled_from([0.05, 0.3, 2.0]))
    kind = draw(st.sampled_from(["empty", "random", "rows", "all"]))
    solid = np.zeros((ny, nx), dtype=bool)
    if kind == "random":
        solid = rng.random((ny, nx)) < draw(st.sampled_from([0.02, 0.3]))
    elif kind == "rows":
        solid[rng.integers(0, ny, size=2)] = True
    elif kind == "all":
        solid[:] = True
    return f, solid, draw(st.floats(0.2, 1.9))


@given(case=lattices(), block=st.sampled_from([3, 8, 60]))
@settings(max_examples=60, deadline=None)
def test_one_step_matches_whole_lattice_reference(case, block):
    f, solid, omega = case
    expected = f.copy()
    reference_collide(expected, omega, skip=solid)
    collided = expected.copy()
    reference_stream(expected)
    reference_bounce_back(expected, solid)

    ny, nx = solid.shape
    cells = np.nonzero(solid)
    with mock.patch.object(d2q9, "BLOCK_ROWS", block):  # several blocks, a short last one
        kernel = Kernel(ny, nx)
    kernel.collide(f, omega, cells)
    assert np.array_equal(bits(f), bits(collided))
    back = np.full_like(f, np.nan)
    Kernel.stream(f, back[:, 1:-1, 1:-1])
    Kernel.bounce_back(back, cells)
    # the skipped edges are the solver's boundary cells; everything else is the roll
    assert np.array_equal(bits(back[:, 1:-1, 1:-1]), bits(expected[:, 1:-1, 1:-1]))


@given(case=lattices())
@settings(max_examples=30, deadline=None)
def test_module_functions_on_views_match_reference(case):
    """``collide`` / ``stream`` / ``bounce_back`` keep their signatures (bool
    masks, periodic in-place streaming) and accept views like ``f[:, 1:-1, :]``."""
    f, solid, omega = case
    expected = f.copy()
    got, want = f[:, 1:-1, :], expected[:, 1:-1, :]
    skip = solid[1:-1]
    reference_collide(want, omega, skip=skip)
    reference_stream(want)
    reference_bounce_back(want, skip)
    d2q9.collide(got, omega, skip=skip)
    d2q9.stream(got)
    d2q9.bounce_back(got, skip)
    assert np.array_equal(bits(f), bits(expected))
    rho, ux, uy = d2q9.macroscopics(got)
    for mine, theirs in zip((rho, ux, uy), reference_macroscopics(want)):
        assert np.array_equal(mine, theirs)  # == : only a zero's sign may differ


# -- whole runs against the parent's digests -----------------------------------------

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_the_matrix():
    keys = {case_key(ny, nx, o, r) for ny, nx in LATTICES for o in OBSTACLES for r in RANKS}
    assert set(GOLDEN["digests"]) == keys
    assert GOLDEN["header"]["numpy"]


@pytest.mark.parametrize("ranks", RANKS)
@pytest.mark.parametrize("obstacle", OBSTACLES)
@pytest.mark.parametrize("lattice", LATTICES, ids=lambda shape: f"{shape[0]}x{shape[1]}")
def test_golden_digest(lattice, obstacle, ranks):
    ny, nx = lattice
    recorded = GOLDEN["digests"][case_key(ny, nx, obstacle, ranks)]
    assert case_digests(ny, nx, obstacle, ranks, LATTICES[lattice]) == recorded


# -- allocation ceilings -------------------------------------------------------------

CEILING = 256 * 1024


def _traced_peak(sim, barrier=lambda: None, tracer=True):
    """Peak of new allocations over ``step(10)`` of a solver already built
    and stepped once; with ranks, one of them owns the process-wide trace."""
    sim.step(1)
    barrier()
    if tracer:
        tracemalloc.start()
    barrier()
    try:
        sim.step(10)
        barrier()
        return tracemalloc.get_traced_memory()[1]
    finally:
        barrier()
        if tracer:
            tracemalloc.stop()


def test_serial_step_allocates_no_lattice_sized_temporary():
    assert _traced_peak(SerialLbm(LbmConfig(nx=600, ny=240))) < CEILING


def test_distributed_step_allocates_no_lattice_sized_temporary():
    """Two 60 x 600 slabs stepping together (the benchmark's slab size); most
    of what is left is the transport's eager copy of four 43 KB ghost rows."""
    def fn(comm):
        sim = DistributedLbm(comm, LbmConfig(nx=600, ny=120))
        assert sim.rows == 60
        return _traced_peak(sim, comm.Barrier, tracer=comm.rank == 0)

    assert max(spmd(2, fn)) < CEILING


# -- the contract of ``f`` and of the observables ------------------------------------


@pytest.mark.parametrize("obstacle", OBSTACLES)
def test_state_written_into_f_continues_like_a_fresh_solver(obstacle):
    """The pipeline's reconfiguration path: ``sim.f[:, 1:-1, :] = state``
    after an odd number of steps (so the buffers have swapped), then step on."""
    config = LbmConfig(nx=40, ny=16, obstacle=obstacle)

    def fn(comm):
        donor = DistributedLbm(comm, config)
        donor.step(17)
        state = donor.interior.copy()
        used = DistributedLbm(comm, config)
        used.step(5)
        used.f[:, 1:-1, :] = state
        fresh = DistributedLbm(comm, config)
        fresh.f[:, 1:-1, :] = state
        for sim in (donor, used, fresh):
            sim.step(8)
        return bits(donor.interior), bits(used.interior), bits(fresh.interior)

    for donor, used, fresh in spmd(3, fn):
        assert np.array_equal(used, fresh)
        assert np.array_equal(used, donor)


def test_observables_are_the_callers_arrays():
    def snapshot_then_step(sim):
        fields = [*sim.macroscopics(), sim.vorticity()]
        kept = [field.copy() for field in fields]
        sim.step(3)
        sim.macroscopics()
        sim.vorticity()
        assert all(np.array_equal(a, b) for a, b in zip(fields, kept))
        assert not any(np.shares_memory(field, sim.f) for field in fields)
        return True

    config = LbmConfig(nx=40, ny=16)
    serial = SerialLbm(config)
    serial.step(4)
    assert snapshot_then_step(serial)

    def fn(comm):
        sim = DistributedLbm(comm, config)
        sim.step(4)
        return snapshot_then_step(sim)

    assert all(spmd(2, fn))


@pytest.mark.parametrize("nprocs", [1, 3])
def test_solid_edited_between_steps_is_honoured(nprocs):
    """``solid`` is re-read at each ``step`` call, for both solvers."""
    config = LbmConfig(nx=32, ny=18)
    serial = SerialLbm(config)
    serial.step(6)
    serial.solid[:] = False
    serial.solid[4:7, 20] = True
    serial.step(6)

    def fn(comm):
        sim = DistributedLbm(comm, config)
        sim.step(6)
        sim.solid[:] = False
        lo, hi = max(4, sim.y0), min(7, sim.y1)
        if lo < hi:
            sim.solid[lo - sim.y0 : hi - sim.y0, 20] = True
        sim.step(6)
        return sim.y0, sim.y1, sim.interior.copy()

    for y0, y1, interior in spmd(nprocs, fn):
        assert np.array_equal(bits(interior), bits(serial.f[:, y0:y1]))
    moved = SerialLbm(config)
    moved.step(12)
    assert not np.array_equal(moved.f, serial.f)
