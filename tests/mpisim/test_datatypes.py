"""Unit + property tests for MPI-like derived datatypes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpisim import (
    BYTE,
    ContiguousType,
    DOUBLE,
    DatatypeError,
    FLOAT,
    INT,
    NamedType,
    StructType,
    SubarrayType,
    VectorType,
    named_type_for,
)


class TestNamedTypes:
    def test_constants_map_to_numpy(self):
        assert FLOAT.dtype == np.float32
        assert DOUBLE.dtype == np.float64
        assert INT.dtype == np.int32
        assert BYTE.dtype == np.uint8

    def test_get_size(self):
        assert FLOAT.Get_size() == 4
        assert DOUBLE.Get_size() == 8

    def test_named_type_for_roundtrip(self):
        assert named_type_for(np.float32) is FLOAT
        assert named_type_for("float64") is DOUBLE

    def test_named_type_for_novel_dtype(self):
        t = named_type_for(np.complex128)
        assert t.dtype == np.complex128
        assert named_type_for(np.complex128) is t  # cached

    def test_pack_unpack_single(self):
        buf = np.array([1.5, 2.5], dtype=np.float32)
        out = FLOAT.pack(buf)
        assert out.tolist() == [1.5]
        FLOAT.unpack(buf, np.array([9.0], dtype=np.float32))
        assert buf[0] == 9.0


class TestContiguous:
    def test_pack(self):
        t = FLOAT.Create_contiguous(3)
        buf = np.arange(5, dtype=np.float32)
        assert t.pack(buf).tolist() == [0, 1, 2]

    def test_unpack(self):
        t = FLOAT.Create_contiguous(2)
        buf = np.zeros(4, dtype=np.float32)
        t.unpack(buf, np.array([7, 8], dtype=np.float32))
        assert buf.tolist() == [7, 8, 0, 0]

    def test_size(self):
        assert FLOAT.Create_contiguous(6).size_bytes() == 24

    def test_buffer_too_small(self):
        t = FLOAT.Create_contiguous(10)
        with pytest.raises(DatatypeError):
            t.pack(np.zeros(3, dtype=np.float32))

    def test_negative_count_rejected(self):
        with pytest.raises(DatatypeError):
            ContiguousType(FLOAT, -1)

    def test_dtype_mismatch_rejected(self):
        t = FLOAT.Create_contiguous(2)
        with pytest.raises(DatatypeError):
            t.pack(np.zeros(4, dtype=np.float64))


class TestVector:
    def test_pack_strided(self):
        # 3 blocks of 2 elements, stride 4: indices 0,1,4,5,8,9
        t = INT.Create_vector(3, 2, 4)
        buf = np.arange(12, dtype=np.int32)
        assert t.pack(buf).tolist() == [0, 1, 4, 5, 8, 9]

    def test_unpack_strided(self):
        t = INT.Create_vector(2, 1, 3)
        buf = np.zeros(4, dtype=np.int32)
        t.unpack(buf, np.array([5, 6], dtype=np.int32))
        assert buf.tolist() == [5, 0, 0, 6]

    def test_roundtrip(self):
        t = DOUBLE.Create_vector(4, 3, 5)
        src = np.arange(20, dtype=np.float64)
        dst = np.zeros(20, dtype=np.float64)
        t.unpack(dst, t.pack(src))
        assert t.pack(dst).tolist() == t.pack(src).tolist()

    def test_extent_check(self):
        t = INT.Create_vector(3, 2, 4)  # extent = 2*4 + 2 = 10
        with pytest.raises(DatatypeError):
            t.pack(np.zeros(9, dtype=np.int32))
        t.pack(np.zeros(10, dtype=np.int32))  # exactly enough


class TestSubarray:
    def test_2d_block(self):
        t = FLOAT.Create_subarray((4, 4), (2, 2), (1, 1))
        buf = np.arange(16, dtype=np.float32)
        assert t.pack(buf).tolist() == [5, 6, 9, 10]

    def test_3d_block(self):
        t = INT.Create_subarray((2, 3, 4), (1, 2, 2), (1, 0, 1))
        buf = np.arange(24, dtype=np.int32)
        grid = buf.reshape(2, 3, 4)
        expect = grid[1:2, 0:2, 1:3].reshape(-1)
        assert t.pack(buf).tolist() == expect.tolist()

    def test_unpack_writes_only_block(self):
        t = FLOAT.Create_subarray((3, 3), (2, 1), (0, 2))
        buf = np.zeros(9, dtype=np.float32)
        t.unpack(buf, np.array([1, 2], dtype=np.float32))
        assert buf.reshape(3, 3)[:, 2].tolist() == [1, 2, 0]
        assert buf.reshape(3, 3)[:, :2].sum() == 0

    def test_geometry_validation(self):
        with pytest.raises(DatatypeError):
            SubarrayType(FLOAT, (4, 4), (2, 2), (3, 0))  # start+sub > full
        with pytest.raises(DatatypeError):
            SubarrayType(FLOAT, (4,), (2, 2), (0, 0))  # rank mismatch
        with pytest.raises(DatatypeError):
            SubarrayType(FLOAT, (4,), (-1,), (0,))
        with pytest.raises(DatatypeError):
            SubarrayType(FLOAT, (4, 4), (2, 2), (0, 0), order="F")

    def test_commit_free_are_noops(self):
        t = SubarrayType(FLOAT, (4,), (2,), (1,))
        assert t.Commit() is t
        t.Free()

    @given(
        sizes=st.tuples(*[st.integers(1, 8)] * 3),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_roundtrip(self, sizes, data):
        """unpack(pack(x)) restores the selected region exactly and leaves
        the rest of the destination untouched."""
        subsizes = tuple(data.draw(st.integers(1, s)) for s in sizes)
        starts = tuple(
            data.draw(st.integers(0, s - sub)) for s, sub in zip(sizes, subsizes)
        )
        t = DOUBLE.Create_subarray(sizes, subsizes, starts)
        n = int(np.prod(sizes))
        src = np.arange(n, dtype=np.float64)
        dst = np.full(n, -1.0)
        t.unpack(dst, t.pack(src))
        grid_s = src.reshape(sizes)
        grid_d = dst.reshape(sizes)
        sl = tuple(slice(o, o + s) for o, s in zip(starts, subsizes))
        assert np.array_equal(grid_d[sl], grid_s[sl])
        untouched = np.full(n, -1.0).reshape(sizes)
        untouched[sl] = grid_s[sl]
        assert np.array_equal(grid_d, untouched)


class TestViewProtocol:
    """``view``/``copy_into``: the zero-copy transport's datatype contract."""

    def test_named_and_contiguous_views_share_memory(self):
        buf = np.arange(6, dtype=np.float32)
        assert FLOAT.is_contiguous()
        v = FLOAT.view(buf)
        assert v.size == 1 and np.shares_memory(v, buf)
        t = FLOAT.Create_contiguous(4)
        assert t.is_contiguous()
        v = t.view(buf)
        assert v.size == 4 and np.shares_memory(v, buf)
        v[0] = 99.0
        assert buf[0] == 99.0

    def test_vector_strided_view(self):
        t = INT.Create_vector(3, 2, 4)
        buf = np.arange(13, dtype=np.int32)  # one past the 12-element extent
        assert not t.is_contiguous()
        v = t.view(buf)
        assert v is not None and np.shares_memory(v, buf)
        assert v.reshape(-1).tolist() == t.pack(buf).tolist()

    def test_vector_view_unexpressible_cases(self):
        # Buffer ending exactly at the extent: the (count, stride) reshape
        # would read past the end, so no view — pack still works.
        t = INT.Create_vector(3, 2, 4)
        exact = np.arange(10, dtype=np.int32)
        assert t.view(exact) is None
        assert t.pack(exact).tolist() == [0, 1, 4, 5, 8, 9]
        # Overlapping blocks can never be a basic-slicing view.
        o = VectorType(INT, 2, 3, 1)
        buf = np.arange(8, dtype=np.int32)
        assert o.view(buf) is None
        assert o.pack(buf).tolist() == [0, 1, 2, 1, 2, 3]

    def test_vector_unit_count_is_contiguous(self):
        assert INT.Create_vector(1, 5, 9).is_contiguous()
        assert INT.Create_vector(4, 3, 3).is_contiguous()

    def test_subarray_view_matches_pack(self):
        t = FLOAT.Create_subarray((4, 5), (2, 3), (1, 1))
        buf = np.arange(20, dtype=np.float32)
        v = t.view(buf)
        assert v.shape == (2, 3) and np.shares_memory(v, buf)
        assert v.reshape(-1).tolist() == t.pack(buf).tolist()

    def test_subarray_contiguity_detection(self):
        assert FLOAT.Create_subarray((4, 4), (4, 4), (0, 0)).is_contiguous()
        assert FLOAT.Create_subarray((4, 4), (1, 4), (2, 0)).is_contiguous()
        assert FLOAT.Create_subarray((4, 4), (2, 4), (1, 0)).is_contiguous()
        assert not FLOAT.Create_subarray((4, 4), (2, 2), (0, 0)).is_contiguous()
        assert not FLOAT.Create_subarray((2, 3, 4), (2, 2, 4), (0, 0, 0)).is_contiguous()
        # Single-element selections are trivially contiguous.
        assert FLOAT.Create_subarray((4, 4), (1, 1), (3, 3)).is_contiguous()

    def test_cached_geometry_is_precomputed(self):
        vec = INT.Create_vector(3, 2, 4)
        assert vec._indices() is vec._indices()  # one array, built at __init__
        sub = FLOAT.Create_subarray((4, 4), (2, 2), (1, 1))
        assert sub._slices() is sub._slices()

    def test_copy_into_same_geometry(self):
        t = FLOAT.Create_subarray((4, 4), (2, 2), (1, 1))
        src = np.arange(16, dtype=np.float32)
        dst = np.zeros(16, dtype=np.float32)
        t.copy_into(src, dst)
        assert np.array_equal(t.pack(dst), t.pack(src))
        assert dst.reshape(4, 4)[0].sum() == 0  # outside the block untouched

    def test_copy_into_differing_type_shapes(self):
        # A (2, 2) block moved into a contiguous run and a strided vector.
        s = INT.Create_subarray((4, 4), (2, 2), (0, 0))
        src = np.arange(16, dtype=np.int32)
        run = INT.Create_contiguous(4)
        dst = np.full(6, -1, dtype=np.int32)
        s.copy_into(src, dst, run)
        assert dst.tolist() == [0, 1, 4, 5, -1, -1]
        vec = INT.Create_vector(4, 1, 2)
        strided = np.full(8, -1, dtype=np.int32)
        s.copy_into(src, strided, vec)
        assert strided.tolist() == [0, -1, 1, -1, 4, -1, 5, -1]

    def test_copy_into_casts_like_pack_unpack(self):
        t = DOUBLE.Create_contiguous(3)
        ti = INT.Create_contiguous(3)
        src = np.array([1.9, -2.9, 3.1])
        direct = np.zeros(3, dtype=np.int32)
        t.copy_into(src, direct, ti)
        staged = np.zeros(3, dtype=np.int32)
        ti.unpack(staged, t.pack(src))
        assert direct.tolist() == staged.tolist()

    def test_copy_into_size_mismatch_raises(self):
        with pytest.raises(DatatypeError):
            INT.Create_contiguous(3).copy_into(
                np.zeros(3, dtype=np.int32),
                np.zeros(4, dtype=np.int32),
                INT.Create_contiguous(4),
            )

    def test_pack_into_preallocated_out(self):
        t = FLOAT.Create_subarray((3, 3), (2, 2), (0, 0))
        buf = np.arange(9, dtype=np.float32)
        out = np.empty(4, dtype=np.float32)
        result = t.pack(buf, out=out)
        assert np.shares_memory(result, out)
        assert result.tolist() == [0, 1, 3, 4]
        with pytest.raises(DatatypeError):
            t.pack(buf, out=np.empty(2, dtype=np.float32))  # too small
        with pytest.raises(DatatypeError):
            t.pack(buf, out=np.empty(4, dtype=np.float64))  # wrong dtype


class TestStruct:
    """``(buffer index, member type)`` pairs over a sequence of buffers: the
    packed form is the members' packed forms, concatenated."""

    def make(self):
        a = np.arange(16, dtype=np.float32).reshape(4, 4)
        b = np.arange(100, 106, dtype=np.float32)
        members = [
            (0, SubarrayType(FLOAT, (4, 4), (2, 2), (1, 1))),
            (1, ContiguousType(FLOAT, 3)),
            (0, SubarrayType(FLOAT, (4, 4), (1, 4), (3, 0))),
        ]
        return StructType(members, 2), (a, b)

    def test_pack_concatenates_member_packs(self):
        struct, buffers = self.make()
        expect = np.concatenate([m.pack(buffers[i]) for i, m in struct.members])
        assert struct.size_elements() == 11 and struct.size_bytes() == 44
        assert np.array_equal(struct.pack(buffers), expect)
        assert struct.view(buffers) is None and not struct.is_contiguous()
        out = np.zeros(16, dtype=np.float32)
        packed = struct.pack(list(buffers), out=out)
        assert np.shares_memory(packed, out) and np.array_equal(packed, expect)

    def test_unpack_inverts_pack(self):
        struct, buffers = self.make()
        target = (np.full((4, 4), -1, np.float32), np.full(6, -1, np.float32))
        struct.unpack(target, struct.pack(buffers))
        assert np.array_equal(struct.pack(target), struct.pack(buffers))
        assert target[0][0, 0] == -1 and target[1][3] == -1  # only the selection
        with pytest.raises(DatatypeError, match="selects 11 elements"):
            struct.unpack(target, np.zeros(10, np.float32))

    def test_copy_into_member_for_member_and_through_pack(self):
        struct, buffers = self.make()
        same = (np.zeros((4, 4), np.float32), np.zeros(6, np.float32))
        assert struct.copy_into(buffers, same) == 44
        assert np.array_equal(struct.pack(same), struct.pack(buffers))
        # Same sizes member for member, different buffers and geometry.
        flat = StructType(
            [(0, ContiguousType(FLOAT, 4)), (1, ContiguousType(FLOAT, 3)),
             (2, ContiguousType(FLOAT, 4))], 3,
        )
        outs = [np.zeros(count, np.float32) for count in (4, 3, 4)]
        struct.copy_into(buffers, outs, flat)
        assert np.array_equal(np.concatenate(outs), struct.pack(buffers))
        # A different member structure still moves the same packed stream...
        one = np.zeros(11, np.float32)
        struct.copy_into(buffers, one, ContiguousType(FLOAT, 11))
        assert np.array_equal(one, struct.pack(buffers))
        back = (np.zeros((4, 4), np.float32), np.zeros(6, np.float32))
        ContiguousType(FLOAT, 11).copy_into(one, back, struct)
        assert np.array_equal(struct.pack(back), one)
        # ... and a different size is refused.
        with pytest.raises(DatatypeError, match="copy_into"):
            struct.copy_into(buffers, one, ContiguousType(FLOAT, 10))

    def test_buffer_sequence_is_validated(self):
        struct, (a, b) = self.make()
        for bad in ((a,), (a, b, b), a, None):
            with pytest.raises(DatatypeError, match="sequence of 2 buffers"):
                struct.pack(bad)
            with pytest.raises(DatatypeError, match="sequence of 2 buffers"):
                struct.view(bad)
        wrong_dtype = (a, b.astype(np.float64))
        for call in (struct.pack, struct.view):
            with pytest.raises(DatatypeError, match="dtype"):
                call(wrong_dtype)
        with pytest.raises(DatatypeError, match="dtype"):
            struct.copy_into((a, b), wrong_dtype)
        with pytest.raises(DatatypeError, match="elements"):
            struct.view((a, b[:2]))  # members check their own extent

    def test_construction_is_validated(self):
        with pytest.raises(DatatypeError, match="at least one member"):
            StructType([], 1)
        with pytest.raises(DatatypeError, match="buffer 2 of 2"):
            StructType([(2, ContiguousType(FLOAT, 1))], 2)
        with pytest.raises(DatatypeError, match="mix base types"):
            StructType([(0, ContiguousType(FLOAT, 1)), (0, ContiguousType(INT, 1))], 1)
