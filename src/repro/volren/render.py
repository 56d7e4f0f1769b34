"""Orthographic direct volume rendering (emission-absorption model).

The paper's consumer application is GPU DVR; what matters for DDR is that
each rank renders *its own near-cubic block* and partial images are later
composited in depth order.  This CPU renderer implements front-to-back
compositing along a principal axis with per-sample opacity correction —
enough to produce the Figure 2 style images from the redistributed blocks.
"""

from __future__ import annotations

import numpy as np

from ..obs.tracer import TRACER
from ..viz.colormaps import normalize
from .transfer import TransferFunction


def render_block(
    data: np.ndarray,
    tf: TransferFunction,
    axis: str = "z",
    vmin: float | None = None,
    vmax: float | None = None,
    step: int = 1,
    opacity_unit: float = 1.0,
) -> np.ndarray:
    """Render one ``(z, y, x)`` scalar block to a premultiplied RGBA image.

    Returns a float array ``(h, w, 4)``: premultiplied color + accumulated
    alpha, ready for :func:`repro.volren.composite.composite_over`.
    ``vmin``/``vmax`` fix the normalization so distributed blocks agree on
    the transfer-function domain; ``opacity_unit`` rescales per-sample
    opacity for the sampling rate (opacity correction).
    """
    data = np.asarray(data)
    if data.ndim != 3:
        raise ValueError(f"expected (z, y, x) block, got shape {data.shape}")
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    with TRACER.span("phase.render", axis=axis, voxels=int(data.size)):
        return _render_block(data, tf, axis, vmin, vmax, step, opacity_unit)


def _render_block(
    data: np.ndarray,
    tf: TransferFunction,
    axis: str,
    vmin: float | None,
    vmax: float | None,
    step: int,
    opacity_unit: float,
) -> np.ndarray:

    if axis == "z":
        planes = data[::step]  # iterate z, image is (y, x)
    elif axis == "y":
        planes = np.moveaxis(data, 1, 0)[::step]  # image is (z, x)
    elif axis == "x":
        planes = np.moveaxis(data, 2, 0)[::step]  # image is (z, y)
    else:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")

    scalars = normalize(planes, vmin=vmin, vmax=vmax)
    height, width = planes.shape[1], planes.shape[2]
    accum = np.zeros((height, width, 4))

    for index in range(scalars.shape[0]):
        s = scalars[index]
        color = tf.color(s)
        alpha = 1.0 - (1.0 - tf.opacity(s)) ** (step * opacity_unit)
        transmittance = (1.0 - accum[..., 3:4])
        accum[..., :3] += transmittance * color * alpha[..., None]
        accum[..., 3:4] += transmittance * alpha[..., None]
        if accum[..., 3].min() > 0.999:  # early ray termination
            break
    return accum


def rgba_to_rgb(
    accum: np.ndarray, background: tuple[float, float, float] = (0, 0, 0)
) -> np.ndarray:
    """Blend a premultiplied RGBA buffer over a background; returns uint8 RGB."""
    bg = np.asarray(background, dtype=np.float64)
    rgb = accum[..., :3] + (1.0 - accum[..., 3:4]) * bg
    return np.round(np.clip(rgb, 0.0, 1.0) * 255.0).astype(np.uint8)
