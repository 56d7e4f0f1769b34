"""The DDR data descriptor (``DDR_NewDataDescriptor``, paper §III-A).

A descriptor records what *kind* of data is being redistributed: the number
of processes, whether the array is 1D/2D/3D, and the element type/size.
After ``DDR_SetupDataMapping`` it also carries the computed communication
plan — the paper returns an opaque pointer that accumulates this state, and
we mirror that lifecycle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..mpisim.datatypes import NamedType, named_type_for


class DataLayout(enum.IntEnum):
    """Array dimensionality (the paper's ``DATA_TYPE_1D/2D/3D`` constants)."""

    DATA_TYPE_1D = 1
    DATA_TYPE_2D = 2
    DATA_TYPE_3D = 3

    @property
    def ndims(self) -> int:
        return int(self.value)


#: Module-level aliases mirroring the C API's constants.
DATA_TYPE_1D = DataLayout.DATA_TYPE_1D
DATA_TYPE_2D = DataLayout.DATA_TYPE_2D
DATA_TYPE_3D = DataLayout.DATA_TYPE_3D


@dataclass
class DataDescriptor:
    """Opaque state object returned by :func:`repro.core.api.DDR_NewDataDescriptor`.

    Attributes
    ----------
    nprocs:
        Number of processes in the application.
    layout:
        1D / 2D / 3D (:class:`DataLayout`).
    mpi_type:
        Element datatype as a runtime :class:`NamedType` (``MPI_FLOAT`` etc.).
    element_size:
        Per-element byte size, as the caller declared it.  May be a
        *multiple* of the base type's size: an element is then an
        interleaved record of ``components`` consecutive values (e.g. an
        RGB pixel, or a (ux, uy) velocity pair) that always travels
        together — the "array interleaving" layout the paper's related
        work (§II-A) discusses.
    plan:
        Filled in by ``DDR_SetupDataMapping``; ``None`` until then.
    """

    nprocs: int
    layout: DataLayout
    mpi_type: NamedType
    element_size: int
    plan: Optional[object] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {self.nprocs}")
        self.layout = DataLayout(self.layout)
        base = self.mpi_type.dtype.itemsize
        if self.element_size < base or self.element_size % base:
            raise ValueError(
                f"declared element size {self.element_size} is not a positive "
                f"multiple of {self.mpi_type.name} ({base} bytes)"
            )

    @classmethod
    def create(
        cls,
        nprocs: int,
        layout: DataLayout | int,
        dtype: np.dtype | type | str | NamedType,
        element_size: Optional[int] = None,
        components: int = 1,
    ) -> "DataDescriptor":
        """Pythonic constructor accepting a NumPy dtype or a NamedType.

        ``components`` declares interleaved values per element (mutually
        exclusive with passing an explicit ``element_size``).
        """
        mpi_type = dtype if isinstance(dtype, NamedType) else named_type_for(dtype)
        if components < 1:
            raise ValueError(f"components must be >= 1, got {components}")
        if element_size is None:
            element_size = mpi_type.dtype.itemsize * components
        elif components != 1:
            raise ValueError("pass either element_size or components, not both")
        return cls(nprocs, DataLayout(layout), mpi_type, element_size)

    @property
    def ndims(self) -> int:
        return self.layout.ndims

    @property
    def dtype(self) -> np.dtype:
        return self.mpi_type.dtype

    @property
    def components(self) -> int:
        """Interleaved base values per element (1 for scalar elements)."""
        return self.element_size // self.mpi_type.dtype.itemsize

