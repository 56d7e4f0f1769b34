"""Parallel I/O strategies for the TIFF use case."""

from .assignment import (
    Assignment,
    PAPER_STACK,
    StackGeometry,
    all_owned_chunks,
    assigned_images,
    owned_chunks,
)
from .convert import brick_layer_ranges, convert_stack_to_bricks
from .stackload import LoadedBlock, load_stack_ddr, load_stack_no_ddr, stack_geometry

__all__ = [
    "Assignment",
    "LoadedBlock",
    "PAPER_STACK",
    "StackGeometry",
    "all_owned_chunks",
    "assigned_images",
    "brick_layer_ranges",
    "convert_stack_to_bricks",
    "load_stack_ddr",
    "load_stack_no_ddr",
    "owned_chunks",
    "stack_geometry",
]
