"""Serial LBM driver: flow past a barrier (the paper's evaluation flow).

"For our evaluation tests, we place a barrier inside the domain that forces
the fluid to flow around it, creating more turbulent flow patterns."

The serial simulation is both a usable solver and the bitwise reference for
the slab-decomposed distributed solver in ``distributed.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .d2q9 import Kernel, equilibrium, macroscopics, omega_from_viscosity
from .fields import vorticity


@dataclass(frozen=True)
class LbmConfig:
    """Domain + physics of one run.

    ``nx x ny`` lattice, west-to-east inflow ``u0``, kinematic viscosity
    ``viscosity``.  ``obstacle`` selects the solid geometry: ``"bar"`` (the
    paper's barrier — a one-cell vertical segment at ``barrier_x`` spanning
    ``[barrier_y0, barrier_y1)``), ``"circle"`` (a cylinder, the classic
    Kármán-street setup), or ``"none"``.
    """

    nx: int
    ny: int
    u0: float = 0.1
    viscosity: float = 0.02
    obstacle: str = "bar"

    @property
    def omega(self) -> float:
        return omega_from_viscosity(self.viscosity)

    @property
    def barrier_x(self) -> int:
        return max(self.nx // 4, 1)

    @property
    def barrier_y0(self) -> int:
        return self.ny // 3

    @property
    def barrier_y1(self) -> int:
        return max(self.ny - self.ny // 3, self.barrier_y0 + 1)

    @property
    def circle_center(self) -> tuple[float, float]:
        return (self.nx / 4.0, self.ny / 2.0)

    @property
    def circle_radius(self) -> float:
        return max(self.ny / 6.0, 1.0)

    def __post_init__(self) -> None:
        for name in ("nx", "ny"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.nx < 4 or self.ny < 4:
            raise ValueError(f"domain {self.nx}x{self.ny} too small (min 4x4)")
        if not (0 < self.u0 < 0.3):
            raise ValueError(f"u0 = {self.u0} outside the stable range (0, 0.3)")
        if self.obstacle not in ("bar", "circle", "none"):
            raise ValueError(
                f"obstacle must be 'bar', 'circle' or 'none', got {self.obstacle!r}"
            )
        _ = self.omega  # validates viscosity

    def barrier_mask(self, y_range: tuple[int, int] | None = None) -> np.ndarray:
        """Solid mask ``(rows, nx)``; ``y_range`` selects a slab of rows.

        A pure function of global coordinates, so slab-decomposed ranks
        compute masks consistent with the serial solver.
        """
        y_lo, y_hi = (0, self.ny) if y_range is None else y_range
        mask = np.zeros((y_hi - y_lo, self.nx), dtype=bool)
        if self.obstacle == "bar":
            lo = max(self.barrier_y0, y_lo)
            hi = min(self.barrier_y1, y_hi)
            if lo < hi:
                mask[lo - y_lo : hi - y_lo, self.barrier_x] = True
        elif self.obstacle == "circle":
            cx, cy = self.circle_center
            r2 = self.circle_radius**2
            ys = np.arange(y_lo, y_hi)[:, None]
            xs = np.arange(self.nx)[None, :]
            mask |= (xs - cx) ** 2 + (ys - cy) ** 2 <= r2
        return mask

    def inflow_equilibrium(self, rows: int) -> np.ndarray:
        """Equilibrium populations of the uniform inflow, ``(9, rows, nx)``."""
        rho = np.ones((rows, self.nx))
        ux = np.full((rows, self.nx), self.u0)
        uy = np.zeros((rows, self.nx))
        return equilibrium(rho, ux, uy)


class SerialLbm:
    """Whole-domain reference solver, and the step both solvers run.

    ``f`` is the live population buffer: a step streams into a second one
    and swaps them, so assign into ``f`` but do not hold it across ``step``.
    ``solid`` may be edited between ``step`` calls (its cells are looked up
    at the top of each call).
    """

    def __init__(self, config: LbmConfig) -> None:
        self._allocate(config, 0, config.ny, ghosts=0)

    def _allocate(self, config: LbmConfig, y0: int, y1: int, ghosts: int) -> None:
        self.config = config
        self.y0, self.y1, self.rows = y0, y1, y1 - y0
        self.solid = config.barrier_mask((y0, y1))
        self.f = config.inflow_equilibrium(self.rows + 2 * ghosts)
        self.step_count = 0
        self._back = np.empty_like(self.f)
        self._edge = config.inflow_equilibrium(1)[:, 0, :]  # (9, nx)
        self._kernel = Kernel(self.rows, config.nx)

    @property
    def interior(self) -> np.ndarray:
        """The populations of rows ``[y0, y1)``, ``(9, rows, nx)``."""
        return self.f

    def step(self, n: int = 1) -> None:
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError(f"step count must be a non-negative integer, got {n!r}")
        omega, kernel = self.config.omega, self._kernel
        solid = np.nonzero(self.solid)
        for _ in range(n):
            kernel.collide(self.interior, omega, solid)
            self._exchange_ghosts()
            kernel.stream(self.f, self._back[:, 1:-1, 1:-1])
            self.f, self._back = self._back, self.f
            kernel.bounce_back(self.interior, solid)
            self._apply_boundaries()
            self.step_count += 1

    def _exchange_ghosts(self) -> None:
        """Nothing to fetch: the whole domain is here."""

    def _apply_boundaries(self) -> None:
        """Re-impose uniform inflow on the domain borders this solver holds."""
        edge, interior = self._edge, self.interior
        col = edge[:, :1]  # (9, 1) uniform value per direction
        interior[:, :, 0] = col
        interior[:, :, -1] = col
        if self.y0 == 0:
            interior[:, 0, :] = edge
        if self.y1 == self.config.ny:
            interior[:, -1, :] = edge

    # -- observables --------------------------------------------------------

    def macroscopics(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Density and velocity of the interior, ``(rows, nx)`` each."""
        return macroscopics(self.interior)

    def vorticity(self) -> np.ndarray:
        _, ux, uy = self.macroscopics()
        return vorticity(ux, uy)
