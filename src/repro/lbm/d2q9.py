"""D2Q9 lattice-Boltzmann kernels (paper §IV-B's "simple Lattice Boltzmann
method for computing fluid flows in a two-dimensional space").

Arrays are ``(9, ny, nx)`` with the direction index first.  Everything here
is elementwise NumPy arithmetic or a slice copy, which is what makes the slab-
decomposed distributed run bitwise-identical to the serial one (tested).
The per-element operation order of :func:`equilibrium` and
:func:`macroscopics` is pinned: :class:`Kernel` reproduces it plane by plane
on preallocated scratch, and ``tests/lbm/test_kernel_oracle.py`` holds it to
the bits of the whole-lattice formulas it replaced.
"""

from __future__ import annotations

import numpy as np

#: Direction vectors (cx, cy): rest, E, N, W, S, NE, NW, SW, SE.
CX = np.array([0, 1, 0, -1, 0, 1, -1, -1, 1], dtype=np.int64)
CY = np.array([0, 0, 1, 0, -1, 1, 1, -1, -1], dtype=np.int64)

#: Quadrature weights.
W = np.array(
    [4 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 36, 1 / 36, 1 / 36, 1 / 36],
    dtype=np.float64,
)

#: Index of the opposite direction (for bounce-back).
OPPOSITE = np.array([0, 3, 4, 1, 2, 7, 8, 5, 6], dtype=np.int64)

N_DIRS = 9

#: Rows :meth:`Kernel.collide` walks at a time: scratch stays cache-sized on a
#: whole lattice, and blocks stay large enough that rank threads are not
#: handing the interpreter lock over once per few microseconds.
BLOCK_ROWS = 60

_PULL = [(1 - int(cy), 1 - int(cx)) for cx, cy in zip(CX, CY)]
_W_MOVING = W[[1, 5]].reshape(2, 1, 1)  # axis, diagonal
_NO_CELLS = (np.empty(0, dtype=np.intp),) * 2


def omega_from_viscosity(viscosity: float) -> float:
    """BGK relaxation rate: ``omega = 1 / (3 nu + 1/2)``."""
    if not 0 < viscosity < np.inf:  # also refuses nan
        raise ValueError(f"viscosity must be positive and finite, got {viscosity}")
    return 1.0 / (3.0 * viscosity + 0.5)


def equilibrium(rho: np.ndarray, ux: np.ndarray, uy: np.ndarray) -> np.ndarray:
    """Maxwell-Boltzmann equilibrium populations for given macroscopics."""
    cu = CX[:, None, None] * ux[None] + CY[:, None, None] * uy[None]
    usq = ux * ux + uy * uy
    return rho[None] * W[:, None, None] * (
        1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * usq[None]
    )


def _moments(f: np.ndarray, rho: np.ndarray, u: np.ndarray, inv: np.ndarray) -> None:
    """Density into ``rho`` and velocity into ``u = (ux, uy)``: the sums
    ``f.sum(0)``, ``(f * CX).sum(0)``, ``(f * CY).sum(0)`` added left to
    right with the zero terms dropped, then scaled by ``inv = 1 / rho``."""
    np.add.reduce(f, axis=0, out=rho)
    np.divide(1.0, rho, out=inv)
    np.subtract(f[1:3], f[3:5], out=u)
    u += f[5]
    u[0] -= f[6]
    u[1] += f[6]
    u -= f[7]
    u[0] += f[8]
    u[1] -= f[8]
    u *= inv


def macroscopics(f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Density and velocity from populations: ``(rho, ux, uy)``, fresh arrays."""
    rho = np.empty(f.shape[1:])
    u = np.empty((2,) + rho.shape)
    _moments(f, rho, u, np.empty_like(rho))
    return rho, u[0], u[1]


class Kernel:
    """The D2Q9 step of one solver, on scratch sized for ``rows x nx`` cells.

    ``collide`` evaluates :func:`equilibrium` of :func:`macroscopics` through
    ``out=`` ufuncs, each element seeing the operations of those formulas in
    their order (opposite directions share ``c.u`` up to a sign, and negation
    is exact), so no lattice-sized temporary is made and no bit changes.
    """

    def __init__(self, rows: int, nx: int) -> None:
        block = min(rows, BLOCK_ROWS)
        self._s = np.empty((N_DIRS, block, nx))  # 1/rho, brackets, feq, update
        # moving directions as [diagonal, reversed, k]: (E N | W S), (NE NW | SW SE)
        self._b = self._s[1:].reshape(2, 2, 2, block, nx)
        self._t = np.empty((2, 2, block, nx))  # u.u terms, 4.5 (c.u)^2, rho W
        self._rho = np.empty((block, nx))
        self._q = np.empty((block, nx))

    def collide(self, f: np.ndarray, omega: float, solid=_NO_CELLS) -> None:
        """In-place BGK collision; the cells ``solid = (ys, xs)`` are left alone."""
        frozen = f[:, solid[0], solid[1]]
        block = self._rho.shape[0]
        for r0 in range(0, f.shape[1], block):
            self._collide_block(f[:, r0 : r0 + block], omega)
        f[:, solid[0], solid[1]] = frozen

    def _collide_block(self, f: np.ndarray, omega: float) -> None:
        n = f.shape[1]
        s, b, t = self._s[:, :n], self._b[..., :n, :], self._t[..., :n, :]
        rho, q = self._rho[:n], self._q[:n]
        cu = b[:, 1]  # (ux, uy), (ux + uy, uy - ux); the reversed half is -cu
        u = cu[0]
        _moments(f, rho, u, s[0])
        np.multiply(u, u, out=t[0])
        np.add(t[0, 0], t[0, 1], out=q)
        q *= 1.5
        np.add(u[0], u[1], out=cu[1, 0])
        np.subtract(u[1], u[0], out=cu[1, 1])
        np.multiply(cu, 3.0, out=b[:, 0])
        np.multiply(cu, 4.5, out=t)
        t *= cu
        np.subtract(1.0, b[:, 0], out=cu)
        b[:, 0] += 1.0
        b += t[:, None]
        b -= q
        np.subtract(1.0, q, out=s[0])
        np.multiply(rho, _W_MOVING, out=t[0])
        rho *= W[0]
        b *= t[0][:, None, None]
        s[0] *= rho
        s -= f
        s *= omega
        f += s

    @staticmethod
    def stream(src: np.ndarray, dst: np.ndarray) -> None:
        """Pull ``dst`` ``(9, h, w)`` out of ``src`` ``(9, h + 2, w + 2)``:
        each population of a cell comes from its upstream neighbour."""
        h, w = dst.shape[1:]
        for i, (y, x) in enumerate(_PULL):
            dst[i] = src[i, y : y + h, x : x + w]

    @staticmethod
    def bounce_back(f: np.ndarray, solid) -> None:
        """Reverse the populations of the cells ``solid = (ys, xs)``."""
        f[:, solid[0], solid[1]] = f[:, solid[0], solid[1]][OPPOSITE]


def collide(f: np.ndarray, omega: float, skip: np.ndarray | None = None) -> None:
    """In-place BGK collision; ``skip`` masks cells (the solid barrier)."""
    solid = _NO_CELLS if skip is None else np.nonzero(skip)
    Kernel(*f.shape[1:]).collide(f, omega, solid)


def stream(f: np.ndarray) -> None:
    """In-place periodic streaming: shift each population along its
    direction.  The solvers stream between two buffers and skip the wrapped
    edges, which their boundary conditions overwrite anyway."""
    Kernel.stream(np.pad(f, ((0, 0), (1, 1), (1, 1)), mode="wrap"), f)


def bounce_back(f: np.ndarray, solid: np.ndarray) -> None:
    """Full-way bounce-back: reverse all populations at solid cells.

    Populations that streamed into the barrier this step leave it, reversed,
    on the next streaming step — the standard no-slip wall treatment.
    """
    Kernel.bounce_back(f, np.nonzero(solid))
