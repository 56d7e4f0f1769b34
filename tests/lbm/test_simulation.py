"""Serial LBM driver tests: physics sanity + distributed equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lbm import (
    DistributedLbm,
    LbmConfig,
    SerialLbm,
    slab_box,
    slab_rows,
    vorticity,
)
from tests.conftest import spmd
from tests.oracles import kinetic_energy, total_mass

CFG = LbmConfig(nx=48, ny=24)


class TestConfig:
    def test_barrier_geometry(self):
        assert CFG.barrier_x == 12
        assert CFG.barrier_y0 == 8
        assert CFG.barrier_y1 == 16

    def test_barrier_mask_slab(self):
        full = CFG.barrier_mask()
        slab = CFG.barrier_mask((6, 12))
        assert np.array_equal(slab, full[6:12])

    def test_barrier_mask_outside_slab_empty(self):
        assert not CFG.barrier_mask((0, 4)).any()

    def test_validation(self):
        with pytest.raises(ValueError):
            LbmConfig(nx=2, ny=24)
        with pytest.raises(ValueError):
            LbmConfig(nx=48, ny=24, u0=0.5)
        with pytest.raises(ValueError):
            LbmConfig(nx=48, ny=24, viscosity=-1)

    def test_omega_range(self):
        assert 0 < CFG.omega < 2

    @pytest.mark.parametrize("bad", [
        {"viscosity": float("nan")},  # omega = nan: the lattice was NaN two steps later
        {"viscosity": float("inf")},  # omega = 0.0: nothing ever relaxes
        {"nx": 8.0},  # used to surface as a TypeError inside np.zeros
        {"ny": "8"},
        {"u0": float("nan")},
    ])
    def test_non_finite_and_non_integer_values_rejected(self, bad):
        with pytest.raises(ValueError):
            LbmConfig(**{"nx": 8, "ny": 8, **bad})

    def test_numpy_integer_extents_accepted(self):
        assert LbmConfig(nx=np.int64(8), ny=np.int32(8)).barrier_mask().shape == (8, 8)

    @pytest.mark.parametrize("bad", [-3, 1.5, "2", None])
    def test_step_count_validated_by_both_solvers(self, bad):
        serial = SerialLbm(LbmConfig(nx=8, ny=8))
        with pytest.raises(ValueError, match="step count"):
            serial.step(bad)
        assert serial.step_count == 0

        def fn(comm):
            sim = DistributedLbm(comm, LbmConfig(nx=8, ny=8))
            with pytest.raises(ValueError, match="step count"):
                sim.step(bad)
            sim.step(0)
            sim.step(np.int64(2))
            return sim.step_count

        assert spmd(2, fn) == [2, 2]


class TestSerialPhysics:
    def test_initial_state_is_uniform_flow(self):
        sim = SerialLbm(CFG)
        rho, ux, uy = sim.macroscopics()
        assert np.allclose(rho, 1.0)
        assert np.allclose(ux, CFG.u0)
        assert np.allclose(uy, 0.0)

    def test_stable_over_many_steps(self):
        sim = SerialLbm(CFG)
        sim.step(200)
        rho, ux, uy = sim.macroscopics()
        assert np.isfinite(sim.f).all()
        assert rho.min() > 0.5 and rho.max() < 2.0
        assert np.abs(ux).max() < 0.5

    def test_barrier_generates_vorticity(self):
        sim = SerialLbm(CFG)
        sim.step(150)
        curl = sim.vorticity()
        # Flow past the barrier sheds vorticity of both signs downstream.
        downstream = curl[:, CFG.barrier_x + 1 :]
        assert downstream.max() > 1e-4
        assert downstream.min() < -1e-4

    def test_no_barrier_stays_uniform(self):
        """A domain whose barrier mask is empty keeps the uniform flow
        (equilibrium is a fixed point; boundaries re-impose the same state)."""
        cfg = LbmConfig(nx=16, ny=300)  # barrier occupies rows 100..200
        sim = SerialLbm(cfg)
        sim.solid[:] = False  # physics-only test: remove the obstacle
        sim.step(5)
        _, ux, uy = sim.macroscopics()
        assert np.allclose(ux, cfg.u0, atol=1e-12)
        assert np.allclose(uy, 0.0, atol=1e-12)

    def test_mass_bounded(self):
        """Open boundaries exchange mass, but it must stay bounded."""
        sim = SerialLbm(CFG)
        m0 = total_mass(sim.f)
        sim.step(100)
        assert abs(total_mass(sim.f) - m0) / m0 < 0.05

    def test_kinetic_energy_positive(self):
        sim = SerialLbm(CFG)
        sim.step(50)
        assert kinetic_energy(*sim.macroscopics()) > 0


class TestVorticityField:
    def test_rigid_rotation(self):
        """u = (-y, x) has constant curl 2."""
        ys, xs = np.mgrid[0:8, 0:8].astype(float)
        curl = vorticity(-ys, xs)
        assert np.allclose(curl, 2.0)

    def test_uniform_flow_zero(self):
        assert np.allclose(vorticity(np.ones((5, 5)), np.zeros((5, 5))), 0.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            vorticity(np.zeros((3, 3)), np.zeros((4, 3)))


class TestSlabDecomposition:
    def test_rows_partition(self):
        ranges = [slab_rows(24, 5, r) for r in range(5)]
        assert ranges[0][0] == 0 and ranges[-1][1] == 24
        for (_, a_end), (b_start, _) in zip(ranges, ranges[1:]):
            assert a_end == b_start

    def test_slab_box(self):
        box = slab_box(48, 24, 4, 1)
        assert box.offset == (0, 6)
        assert box.dims == (48, 6)


class TestDistributedEqualsSerial:
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 4])
    def test_bitwise_equivalence(self, nprocs):
        """The slab solver must reproduce the serial solver exactly."""
        steps = 30
        serial = SerialLbm(CFG)
        serial.step(steps)

        def fn(comm):
            sim = DistributedLbm(comm, CFG)
            sim.step(steps)
            return sim.y0, sim.y1, sim.interior.copy()

        pieces = spmd(nprocs, fn)
        for y0, y1, interior in pieces:
            assert np.array_equal(interior, serial.f[:, y0:y1, :]), (y0, y1)

    @pytest.mark.parametrize("nprocs", [1, 2, 3])
    def test_vorticity_equivalence(self, nprocs):
        steps = 25
        serial = SerialLbm(CFG)
        serial.step(steps)
        reference = serial.vorticity()

        def fn(comm):
            sim = DistributedLbm(comm, CFG)
            sim.step(steps)
            return sim.y0, sim.y1, sim.vorticity()

        pieces = spmd(nprocs, fn)
        for y0, y1, curl in pieces:
            assert curl.shape == (y1 - y0, CFG.nx)
            assert np.array_equal(curl, reference[y0:y1]), (y0, y1)

    def test_thread_and_process_executors_agree(self):
        cfg = LbmConfig(nx=64, ny=32)

        def fn(comm):
            sim = DistributedLbm(comm, cfg)
            sim.step(10)
            return sim.interior.copy()

        threads = spmd(4, fn, executor="thread")
        forked = spmd(4, fn, executor="process")
        assert all(map(np.array_equal, threads, forked))

    def test_too_many_ranks_rejected(self):
        def fn(comm):
            with pytest.raises(ValueError, match="one row each"):
                DistributedLbm(comm, LbmConfig(nx=8, ny=4))

        spmd(5, fn)

    def test_barrier_split_across_ranks(self):
        """Slab cuts through the barrier rows; equivalence must still hold."""
        cfg = LbmConfig(nx=32, ny=18)
        serial = SerialLbm(cfg)
        serial.step(40)

        def fn(comm):
            sim = DistributedLbm(comm, cfg)
            sim.step(40)
            return sim.y0, sim.y1, sim.interior.copy()

        for y0, y1, interior in spmd(6, fn):
            assert np.array_equal(interior, serial.f[:, y0:y1, :])
