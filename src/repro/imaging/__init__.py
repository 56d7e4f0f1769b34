"""TIFF substrate: codec, on-disk stacks, synthetic CT phantoms."""

from .bricks import BrickedHeader, BrickedVolume, BrickFormatError
from .stack import TiffStack, write_stack
from .synthetic import VolumeSpec, tooth_slice
from .tiff import TiffError, TiffInfo, read_tiff, read_tiff_info, write_tiff

__all__ = [
    "BrickFormatError",
    "BrickedHeader",
    "BrickedVolume",
    "TiffError",
    "TiffInfo",
    "TiffStack",
    "VolumeSpec",
    "read_tiff",
    "read_tiff_info",
    "tooth_slice",
    "write_stack",
    "write_tiff",
]
