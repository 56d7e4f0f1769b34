"""End-to-end use case 1: parallel stack loading, DDR vs baseline equality."""

from __future__ import annotations

import numpy as np
import pytest

from repro.imaging import VolumeSpec, tooth_slice, write_stack
from repro.io import Assignment, load_stack_ddr, load_stack_no_ddr, stack_geometry
from tests.conftest import spmd


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    spec = VolumeSpec(24, 16, 12, np.uint16)
    directory = tmp_path_factory.mktemp("stack")
    return write_stack(directory / "tooth", 12, lambda z: tooth_slice(spec, z)), spec


class TestStackGeometry:
    def test_derived_from_files(self, stack):
        tiff_stack, spec = stack
        geom = stack_geometry(tiff_stack)
        assert geom.width == 24 and geom.height == 16
        assert geom.n_images == 12
        assert geom.bytes_per_pixel == 2


class TestLoaders:
    GRID = (2, 2, 2)

    def reference_volume(self, stack):
        tiff_stack, spec = stack
        return tiff_stack.read_volume()  # (z, y, x)

    def expected_block(self, volume, box):
        x0, y0, z0 = box.offset
        w, h, d = box.dims
        return volume[z0 : z0 + d, y0 : y0 + h, x0 : x0 + w]

    def test_no_ddr_blocks_match_volume(self, stack):
        tiff_stack, _ = stack
        volume = self.reference_volume(stack)

        def fn(comm):
            block = load_stack_no_ddr(comm, tiff_stack, self.GRID)
            assert np.array_equal(block.data, self.expected_block(volume, block.box))
            assert block.read_s > 0
            return block.box

        boxes = spmd(8, fn)
        assert len({b.offset for b in boxes}) == 8  # all distinct blocks

    @pytest.mark.parametrize("strategy", [Assignment.ROUND_ROBIN, Assignment.CONSECUTIVE])
    def test_ddr_blocks_match_volume(self, stack, strategy):
        tiff_stack, _ = stack
        volume = self.reference_volume(stack)

        def fn(comm):
            block = load_stack_ddr(comm, tiff_stack, self.GRID, strategy)
            assert np.array_equal(block.data, self.expected_block(volume, block.box))
            assert block.exchange_s >= 0
            return True

        assert all(spmd(8, fn))

    def test_ddr_equals_no_ddr(self, stack):
        tiff_stack, _ = stack

        def fn(comm):
            base = load_stack_no_ddr(comm, tiff_stack, self.GRID)
            ddr = load_stack_ddr(comm, tiff_stack, self.GRID, Assignment.CONSECUTIVE)
            assert base.box == ddr.box
            assert np.array_equal(base.data, ddr.data)
            return True

        assert all(spmd(8, fn))

    def test_p2p_backend(self, stack):
        tiff_stack, _ = stack

        def fn(comm):
            a = load_stack_ddr(comm, tiff_stack, self.GRID, Assignment.ROUND_ROBIN,
                               backend="p2p")
            b = load_stack_ddr(comm, tiff_stack, self.GRID, Assignment.ROUND_ROBIN)
            assert np.array_equal(a.data, b.data)
            return True

        assert all(spmd(8, fn))

    def test_uneven_grid(self, stack):
        tiff_stack, _ = stack
        volume = self.reference_volume(stack)

        def fn(comm):
            block = load_stack_ddr(comm, tiff_stack, (3, 1, 2), Assignment.ROUND_ROBIN)
            assert np.array_equal(block.data, self.expected_block(volume, block.box))
            return True

        assert all(spmd(6, fn))

    def test_ddr_reads_each_slice_once(self, stack, monkeypatch):
        """Count actual decode calls: DDR must do exactly n_images total."""
        tiff_stack, _ = stack
        from repro.imaging.stack import TiffStack

        counts = []

        original = TiffStack.read_slice

        def counting(self, z, out=None):
            counts.append(z)
            return original(self, z, out)

        monkeypatch.setattr(TiffStack, "read_slice", counting)

        def fn(comm):
            load_stack_ddr(comm, tiff_stack, self.GRID, Assignment.CONSECUTIVE)

        spmd(8, fn)
        assert sorted(counts) == list(range(12))

    def test_no_ddr_reads_slices_redundantly(self, stack, monkeypatch):
        tiff_stack, _ = stack
        from repro.imaging.stack import TiffStack

        counts = []
        original = TiffStack.read_slice

        def counting(self, z, out=None):
            counts.append(z)
            return original(self, z, out)

        monkeypatch.setattr(TiffStack, "read_slice", counting)

        def fn(comm):
            load_stack_no_ddr(comm, tiff_stack, self.GRID)

        spmd(8, fn)
        # 8 ranks x 6 touched slices = 48 decodes of only 12 images: the 4x
        # redundancy DDR eliminates (g^2 = 4 ranks share each slice).
        assert len(counts) == 48
