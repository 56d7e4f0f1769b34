"""D2Q9 kernel unit + property tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lbm import (
    CX,
    CY,
    OPPOSITE,
    W,
    bounce_back,
    collide,
    equilibrium,
    macroscopics,
    omega_from_viscosity,
    stream,
)
from tests.oracles import total_mass


class TestLatticeConstants:
    def test_weights_sum_to_one(self):
        assert W.sum() == pytest.approx(1.0)

    def test_velocity_moments_vanish(self):
        # First moment of the weights is zero (isotropy).
        assert (W * CX).sum() == pytest.approx(0.0)
        assert (W * CY).sum() == pytest.approx(0.0)

    def test_second_moment_is_cs2(self):
        # Lattice speed of sound: sum w_i c_i c_i = 1/3 per axis.
        assert (W * CX * CX).sum() == pytest.approx(1 / 3)
        assert (W * CY * CY).sum() == pytest.approx(1 / 3)

    def test_opposite_is_involution(self):
        assert np.array_equal(OPPOSITE[OPPOSITE], np.arange(9))
        assert np.array_equal(CX[OPPOSITE], -CX)
        assert np.array_equal(CY[OPPOSITE], -CY)


class TestEquilibrium:
    def test_moments_recovered(self, rng):
        rho = 1.0 + 0.1 * rng.random((5, 7))
        ux = 0.1 * (rng.random((5, 7)) - 0.5)
        uy = 0.1 * (rng.random((5, 7)) - 0.5)
        feq = equilibrium(rho, ux, uy)
        r2, ux2, uy2 = macroscopics(feq)
        assert np.allclose(r2, rho)
        assert np.allclose(ux2, ux)
        assert np.allclose(uy2, uy)

    def test_equilibrium_is_collision_fixed_point(self):
        rho = np.ones((4, 4))
        ux = np.full((4, 4), 0.08)
        uy = np.zeros((4, 4))
        f = equilibrium(rho, ux, uy)
        before = f.copy()
        collide(f, omega=1.7)
        assert np.allclose(f, before)

    def test_rest_fluid_weights(self):
        feq = equilibrium(np.ones((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
        assert np.allclose(feq[:, 0, 0], W)


class TestCollide:
    def test_conserves_mass_and_momentum(self, rng):
        f = 0.1 + rng.random((9, 6, 8)) * 0.1
        rho0, ux0, uy0 = macroscopics(f)
        collide(f, omega=1.5)
        rho1, ux1, uy1 = macroscopics(f)
        assert np.allclose(rho0, rho1)
        assert np.allclose(rho0 * ux0, rho1 * ux1)
        assert np.allclose(rho0 * uy0, rho1 * uy1)

    def test_skip_mask(self, rng):
        f = 0.1 + rng.random((9, 4, 4)) * 0.1
        solid = np.zeros((4, 4), dtype=bool)
        solid[1, 2] = True
        frozen = f[:, 1, 2].copy()
        collide(f, omega=1.5, skip=solid)
        assert np.array_equal(f[:, 1, 2], frozen)

    @given(omega=st.floats(0.2, 1.9), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_property_mass_conservation(self, omega, seed):
        rng = np.random.default_rng(seed)
        f = 0.05 + rng.random((9, 5, 5)) * 0.2
        mass = total_mass(f)
        collide(f, omega)
        assert total_mass(f) == pytest.approx(mass, rel=1e-12)


class TestStream:
    def test_east_population_moves_east(self):
        f = np.zeros((9, 3, 4))
        f[1, 1, 1] = 1.0  # direction E = (1, 0)
        stream(f)
        assert f[1, 1, 2] == 1.0
        assert f[1, 1, 1] == 0.0

    def test_rest_population_stays(self):
        f = np.zeros((9, 3, 3))
        f[0, 1, 1] = 1.0
        stream(f)
        assert f[0, 1, 1] == 1.0

    def test_periodic_wrap(self):
        f = np.zeros((9, 2, 3))
        f[1, 0, 2] = 1.0  # E at last column wraps to column 0
        stream(f)
        assert f[1, 0, 0] == 1.0

    def test_mass_conserved(self, rng):
        f = rng.random((9, 5, 6))
        mass = total_mass(f)
        stream(f)
        assert total_mass(f) == pytest.approx(mass)

    def test_diagonal(self):
        f = np.zeros((9, 4, 4))
        f[5, 1, 1] = 1.0  # NE = (1, 1): +x, +y (row index +1)
        stream(f)
        assert f[5, 2, 2] == 1.0


class TestBounceBack:
    def test_populations_reversed_at_solid(self, rng):
        f = rng.random((9, 3, 3))
        solid = np.zeros((3, 3), dtype=bool)
        solid[1, 1] = True
        before = f[:, 1, 1].copy()
        bounce_back(f, solid)
        assert np.allclose(f[:, 1, 1], before[OPPOSITE])
        assert np.allclose(f[:, 0, 0], f[:, 0, 0])  # others untouched

    def test_double_bounce_is_identity(self, rng):
        f = rng.random((9, 3, 3))
        solid = np.ones((3, 3), dtype=bool)
        before = f.copy()
        bounce_back(f, solid)
        bounce_back(f, solid)
        assert np.allclose(f, before)


class TestOmega:
    def test_value(self):
        assert omega_from_viscosity(1 / 6) == pytest.approx(1.0)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            omega_from_viscosity(0.0)
