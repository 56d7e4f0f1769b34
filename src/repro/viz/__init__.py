"""Visualization primitives: colormaps, scalar-field rendering, PPM I/O."""

from .colormaps import (
    BLUE_WHITE_RED,
    COLORMAPS,
    Colormap,
    GRAYSCALE,
    TOOTH,
    normalize,
)
from .image import assemble_tiles, render_scalar_field
from .ppm import write_ppm

__all__ = [
    "BLUE_WHITE_RED",
    "COLORMAPS",
    "Colormap",
    "GRAYSCALE",
    "TOOTH",
    "assemble_tiles",
    "normalize",
    "render_scalar_field",
    "write_ppm",
]
