"""Unit + property tests for MPI-like derived datatypes."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Box
from repro.core.packing import subarray_type
from repro.core.schedule import Declarations, _runs, plan_ranks
from repro.mpisim import (
    BYTE,
    ContiguousType,
    DOUBLE,
    DatatypeError,
    FLOAT,
    INT,
    StructType,
    SubarrayType,
    named_type_for,
)
from repro.utils import counting_transfers
from repro.volren.decompose import grid_boxes
from tests.conftest import every_lane


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
    """MPI vector layouts (``count`` blocks of ``blocklength`` elements,
    ``stride`` apart) as the 2-D subarray ``(count, stride)`` they are."""

    def test_pack_strided(self):
        # 3 blocks of 2 elements, stride 4: indices 0,1,4,5,8,9
        t = INT.Create_subarray((3, 4), (3, 2), (0, 0))
        buf = np.arange(12, dtype=np.int32)
        assert t.pack(buf).tolist() == [0, 1, 4, 5, 8, 9]

    def test_unpack_strided(self):
        t = INT.Create_subarray((2, 3), (2, 1), (0, 0))
        buf = np.zeros(6, dtype=np.int32)
        t.unpack(buf, np.array([5, 6], dtype=np.int32))
        assert buf.tolist() == [5, 0, 0, 6, 0, 0]

    def test_roundtrip(self):
        t = DOUBLE.Create_subarray((4, 5), (4, 3), (0, 0))
        src = np.arange(20, dtype=np.float64)
        dst = np.zeros(20, dtype=np.float64)
        t.unpack(dst, t.pack(src))
        assert t.pack(dst).tolist() == t.pack(src).tolist()

    def test_extent_check(self):
        t = INT.Create_subarray((3, 4), (3, 2), (0, 0))  # full size 12
        with pytest.raises(DatatypeError):
            t.pack(np.zeros(11, dtype=np.int32))
        t.pack(np.zeros(12, dtype=np.int32))  # exactly enough


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


def flat_run(datatype, size, dtype=np.float32):
    """Is the selection one flat run of a ``size``-element buffer, so that a
    direct copy is a single block move?  Its no-copy view is C-contiguous."""
    view = datatype.view(np.zeros(size, dtype))
    return view is not None and view.flags.c_contiguous


class TestViewProtocol:
    """``view``/``copy_into``: the zero-copy transport's datatype contract."""

    def test_named_and_contiguous_views_share_memory(self):
        buf = np.arange(6, dtype=np.float32)
        assert flat_run(FLOAT, 6)
        v = FLOAT.view(buf)
        assert v.size == 1 and np.shares_memory(v, buf)
        t = FLOAT.Create_contiguous(4)
        assert flat_run(t, 6)
        v = t.view(buf)
        assert v.size == 4 and np.shares_memory(v, buf)
        v[0] = 99.0
        assert buf[0] == 99.0

    def test_vector_strided_view(self):
        t = INT.Create_subarray((3, 4), (3, 2), (0, 0))
        buf = np.arange(12, dtype=np.int32)
        assert not flat_run(t, 12, np.int32)
        v = t.view(buf)
        assert v is not None and np.shares_memory(v, buf)
        assert v.reshape(-1).tolist() == t.pack(buf).tolist()

    def test_vector_unit_count_is_contiguous(self):
        assert flat_run(INT.Create_subarray((1, 9), (1, 5), (0, 0)), 9, np.int32)
        assert flat_run(INT.Create_subarray((4, 3), (4, 3), (0, 0)), 12, np.int32)

    def test_subarray_view_matches_pack(self):
        t = FLOAT.Create_subarray((4, 5), (2, 3), (1, 1))
        buf = np.arange(20, dtype=np.float32)
        v = t.view(buf)
        assert v.shape == (2, 3) and np.shares_memory(v, buf)
        assert v.reshape(-1).tolist() == t.pack(buf).tolist()

    def test_subarray_contiguity_detection(self):
        assert flat_run(FLOAT.Create_subarray((4, 4), (4, 4), (0, 0)), 16)
        assert flat_run(FLOAT.Create_subarray((4, 4), (1, 4), (2, 0)), 16)
        assert flat_run(FLOAT.Create_subarray((4, 4), (2, 4), (1, 0)), 16)
        assert not flat_run(FLOAT.Create_subarray((4, 4), (2, 2), (0, 0)), 16)
        assert not flat_run(FLOAT.Create_subarray((2, 3, 4), (2, 2, 4), (0, 0, 0)), 24)
        # Single-element selections are trivially contiguous.
        assert flat_run(FLOAT.Create_subarray((4, 4), (1, 1), (3, 3)), 16)

    def test_cached_geometry_is_precomputed(self):
        sub = FLOAT.Create_subarray((4, 4), (2, 2), (1, 1))
        assert sub._slices() is sub._slices()  # one tuple, built at __init__

    def test_copy_into_same_geometry(self):
        t = FLOAT.Create_subarray((4, 4), (2, 2), (1, 1))
        src = np.arange(16, dtype=np.float32)
        dst = np.zeros(16, dtype=np.float32)
        t.copy_into(src, dst)
        assert np.array_equal(t.pack(dst), t.pack(src))
        assert dst.reshape(4, 4)[0].sum() == 0  # outside the block untouched

    def test_copy_into_differing_type_shapes(self):
        # A (2, 2) block moved into a contiguous run and a strided column.
        s = INT.Create_subarray((4, 4), (2, 2), (0, 0))
        src = np.arange(16, dtype=np.int32)
        run = INT.Create_contiguous(4)
        dst = np.full(6, -1, dtype=np.int32)
        s.copy_into(src, dst, run)
        assert dst.tolist() == [0, 1, 4, 5, -1, -1]
        column = INT.Create_subarray((4, 2), (4, 1), (0, 0))
        strided = np.full(8, -1, dtype=np.int32)
        s.copy_into(src, strided, column)
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
        assert struct.view(buffers) is None
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


def runs_of(parts):
    """``(first, stop)`` of each run the plan-time rule cuts ``parts`` into."""
    runs = _runs([(k, 0, lo, extent, 0) for k, (lo, extent) in enumerate(parts)])
    return [(first, first + (steps[0] if steps else 1)) for first, steps in runs]


def merged_receive_types(owns, needs, backend="alltoallw"):
    """Every rank's executed receive lanes' datatypes, unbudgeted."""
    decl = Declarations.from_boxes(owns, needs)
    lanes = []
    for plan in plan_ranks(decl, 4):
        (rnd,) = plan.executed(backend, None, FLOAT, 1, {})
        lanes.append(every_lane(rnd, "recv"))
    return lanes


class TestStructRuns:
    """How a merged lane's parts are cut into runs at plan time (paper-order
    overlap rows), each run one stepped subarray moved with one NumPy call."""

    def test_blocks_and_stepped_slices_run(self):
        # Four (3, 2) blocks side by side along the fastest axis: one run.
        blocks = [((3 * k, 1), (3, 2)) for k in range(4)]
        assert runs_of(blocks) == [(0, 4)]
        # Planes of extent 1, any constant step: one stepped run.
        planes = [((0, 1, k), (4, 2, 1)) for k in range(1, 9, 3)]
        assert runs_of(planes) == [(0, 3)]
        stepped = subarray_type(FLOAT, (4, 4, 9), (0, 1, 1), (4, 2, 1), steps=(3, 2, 3))
        assert stepped.steps == (3, 0, 3) and stepped._slices()[0] == slice(1, 8, 3)

    def test_what_breaks_a_run(self):
        a = ((0, 0), (2, 2))
        cases = {
            "another shape": [a, ((0, 2), (1, 2))],
            "a gap": [a, ((0, 3), (2, 2))],
            "an overlap": [a, ((0, 1), (2, 2))],
            "a diagonal": [a, ((2, 2), (2, 2))],
            "going back": [((0, 2), (2, 2)), a],
        }
        for name, parts in cases.items():
            assert runs_of(parts) == [(0, 1), (1, 2)], name
        # A step that changes ends the run; the next one starts there.
        rows = [((0, k), (2, 1)) for k in (0, 2, 4, 5, 6)]
        assert runs_of(rows) == [(0, 3), (3, 5)]

    def test_one_subarray_per_geometry(self):
        """Members that share a geometry share one subarray: every merged
        send lane of a round-robin stack is a struct of one subarray."""
        owns = [[Box((0, 0, k), (8, 8, 1)) for k in range(r, 16, 4)] for r in range(4)]
        decl = Declarations.from_boxes(owns, grid_boxes((8, 8, 16), (2, 2, 1)))
        plan = plan_ranks(decl, 4, ranks=[1])[0]
        types = {}
        (rnd,) = plan.executed("p2p", None, FLOAT, 1, types)
        for lane in every_lane(rnd, "send"):
            assert len({id(member) for _, member in lane.datatype.members}) == 1
        assert len(types) == 12  # 4 send subarrays, 4 structs, 4 stepped receives
        again = plan.executed("alltoallw", None, FLOAT, 1, types)[0]  # another variant, same types
        assert [l.datatype for l in every_lane(again, "send")] == [
            l.datatype for l in every_lane(rnd, "send")
        ]

    def test_redist_rounds_receive_lanes_are_one_run_each(self):
        """128^3 float32 on four ranks, single z-slices dealt round-robin,
        each rank needing one quarter column (the ``redist_rounds``
        benchmark): every merged receive lane, self lane included, is the
        32 planes a peer sends at step 4, one stepped subarray."""
        dims, nprocs = (128, 128, 128), 4
        owns = [[Box((0, 0, k), (128, 128, 1)) for k in range(r, 128, nprocs)]
                for r in range(nprocs)]
        needs = grid_boxes(dims, (2, 2, 1))
        for backend in ("alltoallw", "p2p", "auto"):
            for lanes in merged_receive_types(owns, needs, backend):
                assert len(lanes) == nprocs
                for lane in lanes:
                    assert type(lane.datatype) is SubarrayType
                    assert lane.datatype.steps == (32, 0, 4)
                    assert lane.datatype._slices()[0] == slice(lane.peer, 125 + lane.peer, 4)


# -- differential oracle: structs against the member-by-member reference -----


def reference_pack(struct, buffers, out):
    stop = 0
    for index, member in struct.members:
        start, stop = stop, stop + member.size_elements()
        member.pack(buffers[index], out=out[start:stop])
    return out


def reference_unpack(struct, buffers, data):
    stop = 0
    for index, member in struct.members:
        start, stop = stop, stop + member.size_elements()
        member.unpack(buffers[index], data[start:stop])


def reference_copy(send, src, recv, dst):
    for (s, a), (r, b) in zip(send.members, recv.members):
        a.copy_into(src[s], dst[r], b)


@st.composite
def segments(draw):
    """``ndims``, ``components`` and ``(count, subsizes)`` per segment: what
    both ends of a lane agree on."""
    ndims = draw(st.integers(1, 3))
    components = draw(st.sampled_from([1, 1, 2, 3]))
    shapes = st.tuples(*[st.sampled_from([1, 1, 2, 3])] * ndims)
    return ndims, components, draw(st.lists(st.tuples(st.integers(1, 4), shapes), min_size=1,
                                            max_size=4))


def place(draw, ndims, components, parts):
    """One end of a lane: each segment's members laid out in one buffer —
    blocks side by side, stepped planes, broken steps or overlapping ones —
    or one buffer per member.  Returns the struct and its buffer shapes."""
    spread = draw(st.booleans())
    nbuffers = sum(count for count, _ in parts) if spread else draw(st.integers(1, 3))
    laid = []
    for count, sub in parts:
        buffer = draw(st.integers(0, nbuffers - 1))
        axis = draw(st.integers(0, ndims - 1))
        mode = draw(st.sampled_from(["block", "stepped", "broken", "short"]))
        if mode == "stepped" and sub[axis] != 1:
            mode = "block"
        step = {
            "block": sub[axis],
            "stepped": draw(st.integers(1, 4)),
            "short": max(1, sub[axis] - 1),
            "broken": None,
        }[mode]
        starts = [draw(st.integers(0, 2)) for _ in range(ndims)]
        for k in range(count):
            laid.append([buffer, tuple(starts), sub])
            starts[axis] += step if step is not None else draw(st.integers(1, sub[axis] + 2))
    if spread:
        for k, member in enumerate(laid):
            member[0] = k
    shapes = [[1] * ndims for _ in range(nbuffers)]
    for buffer, starts, sub in laid:
        shapes[buffer] = [max(n, lo + s) for n, lo, s in zip(shapes[buffer], starts, sub)]
    shapes = [tuple(n + draw(st.integers(0, 1)) for n in shape) + (components,)
              for shape in shapes]
    members = [
        (buffer, SubarrayType(FLOAT, shapes[buffer], sub + (components,), starts + (0,)))
        for buffer, starts, sub in laid
    ]
    return StructType(members, nbuffers), shapes


def counted(call, *args):
    with counting_transfers() as counters:
        result = call(*args)
        return result, counters.snapshot()


class TestStructRunsOracle:
    """Every struct operation equals the member-by-member reference kept
    here, bitwise, with the same transfer counts."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_runs_equal_the_member_by_member_reference(self, data):
        ndims, components, parts = data.draw(segments())
        send, send_shapes = place(data.draw, ndims, components, parts)
        recv, recv_shapes = place(data.draw, ndims, components, parts)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        src = [rng.random(shape, dtype=np.float32) for shape in send_shapes]

        def blank():
            return [np.full(shape, -1, np.float32) for shape in recv_shapes]

        size = send.size_elements()
        packed, got = counted(send.pack, src, np.empty(size + 3, np.float32))
        expect, want = counted(reference_pack, send, src, np.empty(size, np.float32))
        assert packed.tobytes() == expect.tobytes() and got == want
        assert send.pack(src).tobytes() == expect.tobytes()

        ours, theirs = blank(), blank()
        assert counted(recv.unpack, ours, expect)[1] == counted(
            reference_unpack, recv, theirs, expect)[1]
        assert [a.tobytes() for a in ours] == [b.tobytes() for b in theirs]

        # A first copy, then the copy program's replays: the same buffers
        # again, one source swapped for a new object of the same geometry
        # and new values, and a fresh destination (the old one untouched).
        ours = blank()
        swapped = list(src)
        k = data.draw(st.integers(0, len(src) - 1))
        swapped[k] = rng.random(send_shapes[k], dtype=np.float32)
        for source, dest in ((src, ours), (src, ours), (swapped, ours), (swapped, blank())):
            kept = [a.copy() for a in ours]
            for a in dest:
                a.fill(-1)
            theirs = blank()
            moved, got = counted(send.copy_into, source, dest, recv)
            assert moved == send.size_bytes()
            assert got == counted(reference_copy, send, source, recv, theirs)[1]
            assert [a.tobytes() for a in dest] == [b.tobytes() for b in theirs]
        assert [a.tobytes() for a in ours] == [b.tobytes() for b in kept]

        again = [np.full(shape, -1, np.float32) for shape in send_shapes]
        send.copy_into(src, again)
        theirs = [np.full(shape, -1, np.float32) for shape in send_shapes]
        reference_copy(send, src, send, theirs)
        assert [a.tobytes() for a in again] == [b.tobytes() for b in theirs]

    def test_a_copy_program_is_built_once_per_buffer_set(self, monkeypatch):
        """Replays while every buffer is the same object; a new source or
        destination object, or blocks reshaped on the way, rebuild."""
        builds, build = [], StructType._build

        def counting(self, *args):
            builds.append(args[0])
            return build(self, *args)

        monkeypatch.setattr(StructType, "_build", counting)
        member = SubarrayType(FLOAT, (1, 4, 4), (1, 2, 4), (0, 1, 0))
        send = StructType([(0, member), (1, member)], 2)
        recv = SubarrayType(FLOAT, (4, 2, 4), (1, 2, 4), (1, 0, 0), steps=(2, 0, 2))
        src = [np.arange(16, dtype=np.float32).reshape(1, 4, 4) + 100 * k for k in range(2)]
        dst = np.zeros((4, 2, 4), np.float32)
        for _ in range(3):
            send.copy_into(src, dst, recv)
        assert len(builds) == 1
        src[1] = src[1].copy()
        send.copy_into(src, dst, recv)
        send.copy_into(src, dst.copy(), recv)
        send.copy_into(src, dst, recv)
        assert len(builds) == 4
        assert np.array_equal(dst[1::2], np.concatenate([s[:, 1:3] for s in src]))
        # blocks reshaped into another shape may be copies: never replayed
        rows = SubarrayType(FLOAT, (2, 8), (1, 8), (0, 0), steps=(2, 0, 1))
        flat = np.zeros((2, 8), np.float32)
        for _ in range(2):
            send.copy_into(src, flat, rows)
        assert len(builds) == 6 and np.array_equal(flat, send.pack(src).reshape(2, 8))

    def test_threads_sharing_a_type_never_replay_another_threads_program(self):
        """Threads copying through one pair of types, each between its own
        buffers, replace each other's program all the time (one per
        destination type); every copy still lands its own sources, whether
        they fill in one ``np.concatenate`` (separate arrays) or in one
        ``np.copyto`` (views of one array)."""
        member = SubarrayType(FLOAT, (1, 4, 4), (1, 2, 4), (0, 1, 0))
        send = StructType([(0, member), (1, member)], 2)
        recv = SubarrayType(FLOAT, (4, 2, 4), (1, 2, 4), (1, 0, 0), steps=(2, 0, 2))
        wrong = []

        def work(seed):
            src = [np.full((1, 4, 4), seed + k, np.float32) for k in range(2)]
            if seed % 20:
                src = list(np.stack(src))
            dst = np.zeros((4, 2, 4), np.float32)
            for step in range(300):
                if step % 7 == 0:
                    dst = np.zeros((4, 2, 4), np.float32)  # a fresh destination now and then
                send.copy_into(src, dst, recv)
                if dst[1, 0, 0] != seed or dst[3, 0, 0] != seed + 1:
                    wrong.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(10 * t,)) for t in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not wrong

    def test_members_of_another_shape_still_copy(self):
        """A (2, 2) block into a (1, 4) row and back: the pieces reshape."""
        square = SubarrayType(FLOAT, (4, 4), (2, 2), (1, 1))
        rows = [(0, SubarrayType(FLOAT, (3, 4), (1, 4), (k, 0))) for k in (0, 1)]
        send, recv = StructType([(0, square), (1, square)], 2), StructType(rows, 1)
        src = (np.arange(16, dtype=np.float32), np.arange(16, 32, dtype=np.float32))
        dst = [np.zeros((3, 4), np.float32)]
        send.copy_into(src, dst, recv)
        assert np.array_equal(dst[0][:2].reshape(-1), send.pack(src))
        back = [np.zeros(16, np.float32), np.zeros(16, np.float32)]
        recv.copy_into(dst, back, send)
        assert np.array_equal(send.pack(back), send.pack(src))


# -- stepped subarrays against their blocks, one plain subarray each ------------


@st.composite
def stepped_geometry(draw):
    """A stepped subarray's arguments and the plain subarrays of its blocks:
    1-3 axes, a trailing component axis, blocks that abut or are one cell
    thick along the stepped axis, in a buffer with some slack."""
    ndims = draw(st.integers(1, 3))
    components = draw(st.integers(1, 3))
    sub = [draw(st.integers(1, 3)) for _ in range(ndims)]
    axis, count = draw(st.integers(0, ndims - 1)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        sub[axis], step = 1, draw(st.integers(1, 4))
    else:
        step = sub[axis]
    starts = [draw(st.integers(0, 2)) for _ in range(ndims)]
    reach = list(sub)
    reach[axis] += (count - 1) * step
    sizes = tuple(lo + n + draw(st.integers(0, 2)) for lo, n in zip(starts, reach))
    sizes, sub = sizes + (components,), tuple(sub) + (components,)
    starts = tuple(starts) + (0,)
    blocks = []
    for k in range(count):
        moved = list(starts)
        moved[axis] += k * step
        blocks.append(SubarrayType(FLOAT, sizes, sub, moved))
    return SubarrayType(FLOAT, sizes, sub, starts, steps=(count, axis, step)), blocks


class TestSteppedSubarray:
    """``SubarrayType(steps=...)``: every operation equals its blocks moved one
    by one as plain subarrays, bitwise and by transfer counts."""

    @given(geometry=stepped_geometry(), seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_equals_its_blocks_one_by_one(self, geometry, seed):
        stepped, blocks = geometry
        rng = np.random.default_rng(seed)
        src = rng.random(stepped.sizes, dtype=np.float32)
        assert stepped.blocks == len(blocks)
        assert stepped.size_elements() == sum(b.size_elements() for b in blocks)
        expect = np.concatenate([b.pack(src) for b in blocks])
        view = stepped.view(src)
        assert np.shares_memory(view, src) and view.reshape(-1).tobytes() == expect.tobytes()

        packed, got = counted(stepped.pack, src, np.empty(expect.size + 2, np.float32))
        reference = StructType([(0, b) for b in blocks], 1)
        _, want = counted(reference_pack, reference, (src,), np.empty(expect.size, np.float32))
        assert packed.tobytes() == expect.tobytes() and got == want

        def blank():
            return np.full(stepped.sizes, -1, np.float32)

        ours, theirs = blank(), blank()
        assert counted(stepped.unpack, ours, expect)[1] == counted(
            reference_unpack, reference, (theirs,), expect)[1]
        assert ours.tobytes() == theirs.tobytes()

        # Block to block: stepped to stepped, and a struct of the blocks into
        # the stepped type (a merged lane received as one subarray).
        for source in (stepped, reference):
            ours, theirs = blank(), blank()
            moved, got = counted(source.copy_into, src, ours, stepped)
            _, want = counted(reference_copy, reference, (src,), reference, (theirs,))
            assert moved == stepped.size_bytes() and got == want
            assert ours.tobytes() == theirs.tobytes()
        back = blank()
        stepped.copy_into(src, back, reference)  # into a struct: through pack
        assert reference.pack(back).tobytes() == expect.tobytes()

    def test_out_of_range_steps_are_typed_errors(self):
        def make(sizes, sub, starts, steps):
            return SubarrayType(FLOAT, sizes, sub, starts, steps=steps)

        make((8, 4), (2, 4), (0, 0), (4, 0, 2))  # four abutting blocks fill the axis
        make((9, 4), (1, 4), (0, 0), (3, 0, 4))  # planes 0, 4, 8
        bad = {
            "past the end": ((8, 4), (2, 4), (1, 0), (4, 0, 2)),
            "stepped past the end": ((8, 4), (1, 4), (0, 0), (3, 0, 4)),
            "a gap between thick blocks": ((8, 4), (2, 4), (0, 0), (2, 0, 3)),
            "overlapping blocks": ((8, 4), (2, 4), (0, 0), (2, 0, 1)),
            "a backward step": ((8, 4), (1, 4), (4, 0), (2, 0, -2)),
            "no blocks": ((8, 4), (1, 4), (0, 0), (0, 0, 1)),
            "no such axis": ((8, 4), (1, 4), (0, 0), (2, 2, 1)),
        }
        for args in bad.values():
            with pytest.raises(DatatypeError):
                make(*args)

    def test_pickles_and_crosses_the_process_executor(self):
        import os
        import pickle

        from repro.mpisim import run_spmd

        stepped = SubarrayType(FLOAT, (9, 3, 4), (1, 2, 4), (1, 1, 0), steps=(3, 0, 3))
        buf = np.arange(9 * 3 * 4, dtype=np.float32).reshape(9, 3, 4)

        def same(other):
            packed = other.pack(buf).tobytes()
            return other.steps == stepped.steps and packed == stepped.pack(buf).tobytes()

        assert same(pickle.loads(pickle.dumps(stepped)))
        if not hasattr(os, "fork"):
            return

        def fn(comm):
            if comm.rank == 0:
                comm.send(stepped, dest=1)
                return True
            return same(comm.recv(source=0))

        assert all(run_spmd(2, fn, executor="process", deadlock_timeout=20.0))


class _Sub(np.ndarray):
    """An ndarray subclass: its blocks never become one view."""


def _addresses(array):
    """The byte address of every element of ``array``, sorted."""
    start = array.__array_interface__["data"][0]
    index = np.indices(array.shape).reshape(array.ndim, -1)
    return np.sort(start + (np.array(array.strides)[:, None] * index).sum(0))


ROOT = np.random.default_rng(7).random((16, 8, 6), dtype=np.float32)
#: rows 2..5 of a one- or two-plane chunk
THIN = SubarrayType(FLOAT, (1, 8, 6), (1, 4, 6), (0, 2, 0))
THICK = SubarrayType(FLOAT, (2, 8, 6), (2, 4, 6), (0, 2, 0))
#: four one-cell-thick blocks, planes 1, 5, 9 and 13
PLANES = SubarrayType(FLOAT, (16, 4, 6), (1, 4, 6), (1, 0, 0), steps=(4, 0, 4))
#: four abutting blocks along axis 1
ROWS = SubarrayType(FLOAT, (1, 16, 6), (1, 4, 6), (0, 0, 0), steps=(4, 1, 4))
#: four abutting two-plane blocks
SLABS = SubarrayType(FLOAT, (8, 4, 6), (2, 4, 6), (0, 0, 0), steps=(4, 0, 2))


class TestOneCallFills:
    """A copy program fills a destination member in one ``np.copyto`` when
    its source blocks are one root array's views at one nonzero stride, with
    equal shape, strides and dtype; else in one ``np.concatenate`` of the
    block list.  Either way the result is the blocks concatenated, bitwise."""

    def fill(self, sources, member, recv):
        """Copy ``sources`` into ``recv`` through a struct; returns the
        source of the program's one fill."""
        send = StructType([(k, member) for k in range(len(sources))], len(sources))
        out = np.full(recv.sizes, -1, np.float32)
        assert send.copy_into(sources, out, recv) == send.size_bytes()
        expect = np.full(recv.sizes, -1, np.float32)
        blocks = [member.view(source) for source in sources]
        np.concatenate(blocks, axis=recv.steps[1], out=expect[recv._slices()])
        assert out.tobytes() == expect.tobytes()
        program = send._build(recv, send._fit(recv), sources, (out,))
        ((_, _, target, source),) = program[2]
        if type(source) is np.ndarray:
            assert not source.flags.writeable and target.shape == source.shape
            assert np.array_equal(_addresses(source), np.sort(np.concatenate(
                [_addresses(block) for block in blocks])))
        return source

    @pytest.mark.parametrize("planes, member, recv, shape", [
        ([ROOT[k:k + 1] for k in range(3, 7)], THIN, PLANES, (4, 4, 6)),
        ([ROOT[k:k + 1] for k in range(1, 16, 4)], THIN, PLANES, (4, 1, 4, 6)),
        ([ROOT[k:k + 1] for k in range(1, 16, 4)], THIN, ROWS, (1, 4, 4, 6)),
        ([ROOT[k:k + 1] for k in (13, 9, 5, 1)], THIN, PLANES, (4, 1, 4, 6)),
        ([ROOT[k:k + 2] for k in range(0, 8, 2)], THICK, SLABS, (8, 4, 6)),
    ], ids=["one-slice-apart", "four-slices-apart", "four-apart-axis-1", "negative-step",
            "lengthened-axis"])
    def test_regular_blocks_copy_in_one_call(self, planes, member, recv, shape):
        source = self.fill(planes, member, recv)
        assert type(source) is np.ndarray and source.shape == shape

    @pytest.mark.parametrize("planes", [
        [ROOT[k:k + 1].copy() for k in range(1, 16, 4)],
        [ROOT[1:2], ROOT[5:6], ROOT.copy()[9:10], ROOT.copy()[13:14]],
        [ROOT[k:k + 1] for k in (1, 5, 10, 13)],
        [ROOT[1:2]] * 4,
        [ROOT[1:2], ROOT[5][None], ROOT[9:10], ROOT[13:14]],
        [ROOT[k:k + 1].view(_Sub) for k in range(1, 16, 4)],
    ], ids=["separate", "two-roots", "irregular-step", "zero-step", "unequal-strides",
            "subclass"])
    def test_irregular_blocks_fall_back_to_one_concatenate(self, planes):
        source = self.fill(planes, THIN, PLANES)
        assert type(source) is list and len(source) == 4
