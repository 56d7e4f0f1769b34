"""From-scratch baseline JPEG encoder (Table IV's processed-output format)."""

from .color import subsample_420
from .encoder import encode_gray, encode_rgb
from .huffman import (
    HuffmanTable,
    STD_AC_CHROMINANCE,
    STD_AC_LUMINANCE,
    STD_DC_CHROMINANCE,
    STD_DC_LUMINANCE,
)
from .quant import BASE_CHROMINANCE, BASE_LUMINANCE, scale_table

__all__ = [
    "BASE_CHROMINANCE",
    "BASE_LUMINANCE",
    "HuffmanTable",
    "STD_AC_CHROMINANCE",
    "STD_AC_LUMINANCE",
    "STD_DC_CHROMINANCE",
    "STD_DC_LUMINANCE",
    "encode_gray",
    "encode_rgb",
    "scale_table",
    "subsample_420",
]
