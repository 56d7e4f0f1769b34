"""Test-side readers and references for what the product only writes, streams
or conserves: a second phantom (value-noise "brain") and whole-volume readers
the loaders are compared with, the PPM and raw-dump readers that round-trip the writers, and
the LBM invariants."""

from __future__ import annotations

import numpy as np

from repro.imaging import TiffStack, VolumeSpec, tooth_slice
from repro.imaging.synthetic import _grid, _quantise


def _hash3(ix: np.ndarray, iy: np.ndarray, iz: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic lattice hash -> floats in [0, 1) (vectorised)."""
    h = (
        ix.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        ^ iy.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
        ^ iz.astype(np.uint64) * np.uint64(0x165667B19E3779F9)
        ^ np.uint64(seed)
    )
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def value_noise_slice(
    spec: VolumeSpec, z: int, scale: float = 16.0, seed: int = 7
) -> np.ndarray:
    """Trilinear value noise in [0, 1] for one z-slice (float64)."""
    xs = np.arange(spec.width) / scale
    ys = np.arange(spec.height) / scale
    zf = z / scale

    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    z0 = int(np.floor(zf))
    fx = (xs - x0)[None, :]
    fy = (ys - y0)[:, None]
    fz = zf - z0

    gx0, gy0 = np.meshgrid(x0, y0)
    out = np.zeros((spec.height, spec.width))
    for dz, wz in ((0, 1 - fz), (1, fz)):
        c00 = _hash3(gx0, gy0, np.full_like(gx0, z0 + dz), seed)
        c10 = _hash3(gx0 + 1, gy0, np.full_like(gx0, z0 + dz), seed)
        c01 = _hash3(gx0, gy0 + 1, np.full_like(gx0, z0 + dz), seed)
        c11 = _hash3(gx0 + 1, gy0 + 1, np.full_like(gx0, z0 + dz), seed)
        top = c00 * (1 - fx) + c10 * fx
        bottom = c01 * (1 - fx) + c11 * fx
        out += wz * (top * (1 - fy) + bottom * fy)
    return out


def brain_slice(spec: VolumeSpec, z: int, seed: int = 7) -> np.ndarray:
    """One slice of the "mouse brain" phantom: a smooth envelope modulated
    by multi-octave value noise (gyri/sulci-like texture)."""
    if not (0 <= z < spec.depth):
        raise ValueError(f"slice {z} out of range [0, {spec.depth})")
    xs, ys, zc = _grid(spec, z)
    envelope = 1.0 - ((xs / 0.85) ** 2 + (ys / 0.7) ** 2 + (zc / 0.9) ** 2)
    envelope = np.clip(envelope, 0.0, 1.0)

    noise = (
        0.55 * value_noise_slice(spec, z, scale=max(spec.width / 8, 2), seed=seed)
        + 0.30 * value_noise_slice(spec, z, scale=max(spec.width / 24, 2), seed=seed + 1)
        + 0.15 * value_noise_slice(spec, z, scale=max(spec.width / 64, 2), seed=seed + 2)
    )
    field = envelope * (0.35 + 0.65 * noise)
    return _quantise(field, spec.dtype)


PHANTOMS = {
    "tooth": tooth_slice,
    "brain": brain_slice,
}


def phantom_slice(name: str, spec: VolumeSpec, z: int) -> np.ndarray:
    """Dispatch by phantom name ('tooth' or 'brain')."""
    try:
        fn = PHANTOMS[name]
    except KeyError:
        raise ValueError(f"unknown phantom {name!r}; options: {sorted(PHANTOMS)}") from None
    return fn(spec, z)


def phantom_volume(name: str, spec: VolumeSpec) -> np.ndarray:
    """Whole volume as ``(depth, height, width)`` — test sizes only."""
    return np.stack([phantom_slice(name, spec, z) for z in range(spec.depth)])


def read_volume(stack: TiffStack) -> np.ndarray:
    """A whole stack as ``(depth, height, width)`` — small stacks only."""
    indices = stack.indices()
    if not indices:
        raise FileNotFoundError(f"no slices in {stack.directory}")
    if indices != list(range(len(indices))):
        raise ValueError(f"stack {stack.directory} has gaps: {indices[:10]}...")
    return np.stack([stack.read_slice(z) for z in indices])


def read_raw(path, shape: tuple[int, ...]) -> np.ndarray:
    """Read a flat float32 dump (``repro.io.raw.write_raw``) back into ``shape``."""
    data = np.fromfile(path, dtype=np.float32)
    expected = int(np.prod(shape))
    if data.size != expected:
        raise ValueError(f"{path} holds {data.size} floats, expected {expected}")
    return data.reshape(shape)


def read_ppm(path_or_file) -> np.ndarray:
    """Read a binary PPM (P6) into an ``(h, w, 3)`` uint8 array."""
    if hasattr(path_or_file, "read"):
        data = path_or_file.read()
    else:
        with open(path_or_file, "rb") as handle:
            data = handle.read()

    # Header: magic, width, height, maxval — whitespace/comment separated.
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(data):
            raise ValueError("truncated PPM header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos : pos + 1].isspace():
                pos += 1
            tokens.append(data[start:pos])
    if tokens[0] != b"P6":
        raise ValueError(f"not a binary PPM: magic {tokens[0]!r}")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 255:
        raise ValueError(f"only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace after maxval
    expected = width * height * 3
    pixels = np.frombuffer(data[pos : pos + expected], dtype=np.uint8)
    if pixels.size != expected:
        raise ValueError(f"payload has {pixels.size} bytes, expected {expected}")
    return pixels.reshape(height, width, 3).copy()


def total_mass(f: np.ndarray) -> float:
    """Total density over the lattice (conserved by collide+stream)."""
    return float(f.sum())


def kinetic_energy(rho: np.ndarray, ux: np.ndarray, uy: np.ndarray) -> float:
    return float(0.5 * (rho * (ux * ux + uy * uy)).sum())
