"""Distributed direct volume rendering substrate (use case 1 consumer)."""

from .composite import composite_distributed, composite_over
from .decompose import grid_boxes, grid_shape, split_extent
from .render import render_block, rgba_to_rgb
from .transfer import TOOTH_TF, TransferFunction

__all__ = [
    "TOOTH_TF",
    "TransferFunction",
    "composite_distributed",
    "composite_over",
    "grid_boxes",
    "grid_shape",
    "render_block",
    "rgba_to_rgb",
    "split_extent",
]
