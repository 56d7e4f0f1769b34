"""DataDescriptor (DDR_NewDataDescriptor) unit tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DATA_TYPE_1D,
    DATA_TYPE_2D,
    DATA_TYPE_3D,
    DDR_NewDataDescriptor,
    DataDescriptor,
    DataLayout,
)
from repro.mpisim import DOUBLE, FLOAT


class TestCreate:
    def test_paper_call(self):
        # Algorithm 1 line 1: DDR_NewDataDescriptor(nProcesses, DATA_TYPE_2D,
        # MPI_FLOAT, sizeof(float))
        desc = DDR_NewDataDescriptor(4, DATA_TYPE_2D, FLOAT, 4)
        assert desc.nprocs == 4
        assert desc.ndims == 2
        assert desc.dtype == np.float32
        assert desc.element_size == 4
        assert desc.plan is None

    def test_numpy_dtype_accepted(self):
        desc = DDR_NewDataDescriptor(8, DATA_TYPE_3D, np.uint8)
        assert desc.element_size == 1
        assert desc.ndims == 3

    def test_element_size_inferred(self):
        desc = DDR_NewDataDescriptor(2, DATA_TYPE_1D, DOUBLE)
        assert desc.element_size == 8

    def test_element_size_mismatch_rejected(self):
        # Multiples of the base size are legal (interleaved components);
        # non-multiples are not.
        with pytest.raises(ValueError):
            DDR_NewDataDescriptor(4, DATA_TYPE_2D, FLOAT, 6)
        with pytest.raises(ValueError):
            DDR_NewDataDescriptor(4, DATA_TYPE_2D, FLOAT, 0)

    def test_element_size_multiple_gives_components(self):
        desc = DDR_NewDataDescriptor(4, DATA_TYPE_2D, FLOAT, 8)
        assert desc.components == 2

    def test_bad_nprocs(self):
        with pytest.raises(ValueError):
            DDR_NewDataDescriptor(0, DATA_TYPE_2D, FLOAT, 4)

    def test_layout_from_int(self):
        desc = DataDescriptor.create(2, 2, np.float32)
        assert desc.layout is DataLayout.DATA_TYPE_2D

    def test_bad_layout(self):
        with pytest.raises(ValueError):
            DataDescriptor.create(2, 7, np.float32)

    def test_layout_ndims(self):
        assert DataLayout.DATA_TYPE_1D.ndims == 1
        assert DataLayout.DATA_TYPE_2D.ndims == 2
        assert DataLayout.DATA_TYPE_3D.ndims == 3
