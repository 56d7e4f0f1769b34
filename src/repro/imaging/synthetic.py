"""Synthetic CT-like volumes standing in for the paper's APS scan data.

The paper's authentic data sets — a primate tooth (2048^3, 32-bit) and a
mouse brain (4096x2048x4096, 8-bit) — are proprietary.  The tooth phantom
matches what the experiments actually depend on: slice geometry, bit depth,
and visually structured content for the DVR figure.  Every slice is a pure
function of ``(volume params, z)``, so arbitrarily large stacks can be
generated one slice at a time without holding the volume in memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class VolumeSpec:
    """Geometry of a synthetic volume: ``width x height`` slices, ``depth`` deep."""

    width: int
    height: int
    depth: int
    dtype: np.dtype

    def __post_init__(self) -> None:
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        for name in ("width", "height", "depth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def _grid(spec: VolumeSpec, z: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Normalised coordinates in [-1, 1] for one slice."""
    ys = np.linspace(-1.0, 1.0, spec.height)[:, None]
    xs = np.linspace(-1.0, 1.0, spec.width)[None, :]
    zc = -1.0 + 2.0 * z / max(spec.depth - 1, 1)
    return xs, ys, zc


def _quantise(field: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Map a [0, 1] float field to the target sample type."""
    clipped = np.clip(field, 0.0, 1.0)
    if dtype == np.float32:
        return clipped.astype(np.float32)
    info = np.iinfo(dtype)
    return (clipped * info.max).astype(dtype)


def tooth_slice(spec: VolumeSpec, z: int) -> np.ndarray:
    """One slice of the "primate tooth" phantom.

    Concentric anisotropic ellipsoids: enamel shell (dense), dentin body
    (medium), pulp cavity (near-empty), plus two root canals toward the
    bottom — enough radial structure to make the DVR colormap (Figure 2)
    meaningful.
    """
    if not (0 <= z < spec.depth):
        raise ValueError(f"slice {z} out of range [0, {spec.depth})")
    xs, ys, zc = _grid(spec, z)

    # Tooth tapers toward the root (zc = -1 bottom, +1 crown).
    taper = 0.55 + 0.25 * zc
    r2 = (xs / taper) ** 2 + (ys / taper) ** 2
    body = r2 + (zc / 0.95) ** 2

    field = np.zeros((spec.height, spec.width))
    field[body < 1.00] = 0.55  # dentin
    field[(body >= 0.80) & (body < 1.00)] = 0.95  # enamel shell
    field[body < 0.25] = 0.08  # pulp cavity

    if zc < -0.2:  # root canals
        for cx in (-0.25, 0.25):
            canal = ((xs - cx) / 0.08) ** 2 + (ys / 0.08) ** 2
            field[(canal < 1.0) & (body < 1.0)] = 0.10

    # Mild deterministic texture so slices are not piecewise-constant.
    texture = 0.03 * np.sin(9 * np.pi * xs) * np.sin(7 * np.pi * ys) * np.cos(5 * np.pi * zc)
    field = np.where(field > 0, field + texture, field)
    return _quantise(field, spec.dtype)

