"""MPI-like derived datatypes over NumPy buffers.

The real DDR library describes strided multidimensional subsets with
``MPI_Type_create_subarray`` and hands them to ``MPI_Alltoallw``.  This
module reproduces that machinery: a :class:`Datatype` knows how to *pack*
elements out of a C-contiguous NumPy buffer and *unpack* them back in.

Only the features DDR needs are implemented — named types, contiguous,
subarray (optionally stepped: evenly spaced same-shaped blocks, one merged
exchange lane) and struct — but each follows the MPI definition closely
enough that the tests can validate against hand-computed layouts.

Beyond pack/unpack, every type supports a *zero-copy protocol*: ``view``
exposes the selected elements as an ndarray view (no data movement) when
the selection is expressible with basic slicing, and ``copy_into`` moves a
selection from one buffer straight into another's selection — one
``np.copyto`` instead of pack + unpack, or for a struct one
``np.concatenate`` of its blocks per destination member — falling back to
staging only for selections that neither view nor pair off block for block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import is_
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..utils.timing import TRANSFER_COUNTERS
from .errors import DatatypeError

ORDER_C = "C"


class Datatype:
    """Base class.  Subclasses define element selection within a buffer."""

    #: NumPy scalar dtype of the leaves of this type tree.
    base_dtype: np.dtype
    #: Separately placed blocks one move of the selection copies: one per
    #: planned part of a merged exchange lane.  The transfer counters count
    #: one copy per block.
    blocks = 1

    def size_elements(self) -> int:
        """Number of base elements this datatype selects."""
        raise NotImplementedError

    def size_bytes(self) -> int:
        """Number of payload bytes this datatype selects."""
        return self.size_elements() * self.base_dtype.itemsize

    def pack(self, buffer: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Gather the selected elements of ``buffer`` into a 1-D array.

        With ``out`` (a 1-D array of at least ``size_elements()`` base
        elements) the gather fills the leading slice of ``out`` and returns
        that slice, so callers with a staging pool can avoid allocating.
        """
        raise NotImplementedError

    def unpack(self, buffer: np.ndarray, data: np.ndarray) -> None:
        """Scatter ``data`` (1-D, base dtype) into the selected elements."""
        raise NotImplementedError

    def view(self, buffer: np.ndarray) -> Optional[np.ndarray]:
        """A no-copy ndarray view of the selection, in pack (C) order.

        Returns ``None`` when the selection cannot be expressed with basic
        slicing (callers must then stage through :meth:`pack`).  The view
        may be strided; reading it in C order yields exactly ``pack(...)``.
        """
        return None

    def copy_into(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        dst_type: Optional["Datatype"] = None,
    ) -> int:
        """Copy this type's selection of ``src`` directly into ``dst_type``'s
        selection of ``dst`` (same type by default).  Returns bytes moved.

        The fast path is one ``np.copyto`` between two views — no staging
        allocation.  When either selection is not viewable, or the two
        selections are strided *and* shaped differently, it falls back to
        ``dst_type.unpack(dst, self.pack(src))``.
        """
        target = dst_type if dst_type is not None else self
        if target.size_elements() != self.size_elements():
            raise DatatypeError(
                f"copy_into: source selects {self.size_elements()} elements, "
                f"destination selects {target.size_elements()}"
            )
        nbytes = self.size_bytes()
        src_view = self.view(src)
        dst_view = target.view(dst)
        if src_view is not None and dst_view is not None:
            if src_view.shape == dst_view.shape:
                np.copyto(dst_view, src_view, casting="unsafe")
            elif src_view.flags["C_CONTIGUOUS"]:
                # A contiguous source reshapes without copying.
                np.copyto(dst_view, src_view.reshape(dst_view.shape), casting="unsafe")
            elif dst_view.flags["C_CONTIGUOUS"]:
                np.copyto(dst_view.reshape(src_view.shape), src_view, casting="unsafe")
            else:
                target.unpack(dst, self.pack(src))
                return nbytes
            if TRANSFER_COUNTERS.enabled:
                TRANSFER_COUNTERS.count_copy("direct", nbytes)
            return nbytes
        target.unpack(dst, self.pack(src))
        return nbytes

    # MPI API fidelity: committing is a no-op for an in-process runtime, but
    # the DDR core calls it the way the C library would.
    def Commit(self) -> "Datatype":
        return self

    def Free(self) -> None:
        return None

    def _require_buffer(self, buffer: np.ndarray) -> np.ndarray:
        if not isinstance(buffer, np.ndarray):
            raise DatatypeError(f"expected ndarray buffer, got {type(buffer)!r}")
        if not buffer.flags["C_CONTIGUOUS"]:
            raise DatatypeError("datatype operations require a C-contiguous buffer")
        if buffer.dtype != self.base_dtype:
            raise DatatypeError(
                f"buffer dtype {buffer.dtype} does not match datatype base {self.base_dtype}"
            )
        return buffer.reshape(-1)


def _staging(count: int, out: Optional[np.ndarray], dtype: np.dtype) -> np.ndarray:
    """A 1-D staging array of ``count`` elements: freshly allocated, or the
    leading slice of ``out`` (1-D, matching dtype, large enough)."""
    if out is None:
        if TRANSFER_COUNTERS.enabled:
            TRANSFER_COUNTERS.count_alloc(count * dtype.itemsize)
        return np.empty(count, dtype=dtype)
    if out.ndim != 1 or out.dtype != dtype or not out.flags["C_CONTIGUOUS"]:
        raise DatatypeError(
            f"pack out array must be 1-D contiguous of dtype {dtype}, got "
            f"{out.ndim}-D {out.dtype}"
        )
    if out.size < count:
        raise DatatypeError(f"pack out array holds {out.size} elements, need {count}")
    return out[:count]


def _packed(
    selected: np.ndarray, out: Optional[np.ndarray], dtype: np.dtype, copies: int = 1
) -> np.ndarray:
    """``selected`` (a view in pack order) copied into a :func:`_staging` array."""
    result = _staging(selected.size, out, dtype)
    np.copyto(result.reshape(selected.shape), selected)
    if TRANSFER_COUNTERS.enabled:
        TRANSFER_COUNTERS.count_copy("pack", selected.size * dtype.itemsize, copies)
    return result


def _root(array: np.ndarray) -> np.ndarray:
    """The last ndarray of ``array``'s ``.base`` chain."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def _one_view(selection: np.ndarray, blocks: list, axis: int) -> tuple:
    """``(target, source)`` for one fill: ``blocks`` concatenated along
    ``axis`` fill ``selection``.

    When the blocks are exact ndarrays of one root array, with equal shape,
    strides and dtype, whose data addresses step by one nonzero constant,
    ``source`` is one read-only strided view of exactly their elements: the
    concatenation axis lengthened when the step is extent x stride along it,
    else a block axis inserted before it, with ``target`` the selection with
    that axis split to match.  A lone block is its own view.  Otherwise
    ``source`` is the block list, and ``target`` the selection."""
    first = blocks[0]
    if len(blocks) == 1:
        return selection, first
    root = _root(first)
    shape, strides, dtype = first.shape, first.strides, first.dtype
    for block in blocks:
        if (
            type(block) is not np.ndarray or _root(block) is not root
            or block.shape != shape or block.strides != strides or block.dtype != dtype
        ):
            return selection, blocks
    start = first.__array_interface__["data"][0]
    step = blocks[1].__array_interface__["data"][0] - start
    if step == 0 or any(
        block.__array_interface__["data"][0] != start + k * step
        for k, block in enumerate(blocks[2:], 2)
    ):
        return selection, blocks
    count, extent = len(blocks), shape[axis]
    if step == extent * strides[axis]:
        shape = (*shape[:axis], count * extent, *shape[axis + 1:])
    else:
        shape = (*shape[:axis], count, *shape[axis:])
        strides = (*strides[:axis], step, *strides[axis:])
        selection = selection.reshape(shape)  # splits one axis: a view
    return selection, np.lib.stride_tricks.as_strided(first, shape, strides, writeable=False)


def _may_alias(sendbuf, recvbuf) -> bool:
    """Whether a send and a receive buffer (or buffer sequence) may share memory."""
    sends = sendbuf if isinstance(sendbuf, (tuple, list)) else (sendbuf,)
    recvs = recvbuf if isinstance(recvbuf, (tuple, list)) else (recvbuf,)
    return any(np.may_share_memory(s, r) for s in sends for r in recvs)


@dataclass(frozen=True)
class NamedType(Datatype):
    """A basic MPI type (``MPI_FLOAT`` etc.), wrapping one NumPy dtype."""

    dtype: np.dtype
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "dtype", np.dtype(self.dtype))

    @property
    def base_dtype(self) -> np.dtype:  # type: ignore[override]
        return self.dtype

    def size_elements(self) -> int:
        return 1

    def view(self, buffer: np.ndarray) -> np.ndarray:
        return self._require_buffer(buffer)[:1]

    def pack(self, buffer: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        flat = self._require_buffer(buffer)
        return _packed(flat[:1], out, self.dtype)

    def unpack(self, buffer: np.ndarray, data: np.ndarray) -> None:
        flat = self._require_buffer(buffer)
        flat[:1] = data
        if TRANSFER_COUNTERS.enabled:
            TRANSFER_COUNTERS.count_copy("unpack", self.dtype.itemsize)

    def Create_contiguous(self, count: int) -> "ContiguousType":
        return ContiguousType(self, count)

    def Create_subarray(
        self,
        sizes: Sequence[int],
        subsizes: Sequence[int],
        starts: Sequence[int],
        order: str = ORDER_C,
    ) -> "SubarrayType":
        return SubarrayType(self, tuple(sizes), tuple(subsizes), tuple(starts), order)

    def Get_size(self) -> int:
        return self.dtype.itemsize


class ContiguousType(Datatype):
    """``count`` consecutive elements starting at the buffer origin."""

    def __init__(self, base: NamedType, count: int) -> None:
        if count < 0:
            raise DatatypeError(f"negative count {count}")
        self.base = base
        self.count = int(count)
        self.base_dtype = base.dtype

    def size_elements(self) -> int:
        return self.count

    def view(self, buffer: np.ndarray) -> np.ndarray:
        flat = self._require_buffer(buffer)
        if flat.size < self.count:
            raise DatatypeError(f"buffer has {flat.size} elements, type needs {self.count}")
        return flat[: self.count]

    def pack(self, buffer: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return _packed(self.view(buffer), out, self.base_dtype)

    def unpack(self, buffer: np.ndarray, data: np.ndarray) -> None:
        flat = self._require_buffer(buffer)
        if flat.size < self.count:
            raise DatatypeError(f"buffer has {flat.size} elements, type needs {self.count}")
        flat[: self.count] = data
        if TRANSFER_COUNTERS.enabled:
            TRANSFER_COUNTERS.count_copy("unpack", self.size_bytes())


class SubarrayType(Datatype):
    """An N-dimensional sub-block of an N-dimensional array (MPI subarray).

    ``sizes`` is the full array shape, ``subsizes`` the block shape and
    ``starts`` the block origin, exactly as in ``MPI_Type_create_subarray``.
    Only C (row-major) order is supported; DDR never uses Fortran order.

    ``steps=(count, axis, step)`` makes it ``count`` such blocks, block ``k``
    moved ``k * step`` along ``axis`` (MPI's hvector of subarrays: one merged
    exchange lane).  The blocks abut there or are one cell thick, so the
    selection is one basic-slicing view; the packed form is block after block.
    """

    def __init__(
        self,
        base: NamedType,
        sizes: Sequence[int],
        subsizes: Sequence[int],
        starts: Sequence[int],
        order: str = ORDER_C,
        steps: Optional[tuple[int, int, int]] = None,
    ) -> None:
        if order != ORDER_C:
            raise DatatypeError("only C-order subarrays are supported")
        sizes_t = tuple(int(s) for s in sizes)
        subsizes_t = tuple(int(s) for s in subsizes)
        starts_t = tuple(int(s) for s in starts)
        if not (len(sizes_t) == len(subsizes_t) == len(starts_t)):
            raise DatatypeError("sizes, subsizes and starts must have equal length")
        if len(sizes_t) == 0:
            raise DatatypeError("subarray must have at least one dimension")
        count, axis, step = (1, 0, 0) if steps is None else (int(v) for v in steps)
        if count < 1 or not 0 <= axis < len(sizes_t) or not (
            count == 1 or step == subsizes_t[axis] or (subsizes_t[axis] == 1 and step > 0)
        ):
            raise DatatypeError(
                f"steps {steps}: blocks must abut, or be one cell thick, along one axis"
            )
        reach = list(subsizes_t)
        reach[axis] += (count - 1) * step
        for full, sub, start in zip(sizes_t, reach, starts_t):
            if full < 0 or sub < 0 or start < 0:
                raise DatatypeError("negative subarray geometry")
            if start + sub > full:
                raise DatatypeError(
                    f"subarray [{start}, {start + sub}) exceeds dimension of size {full}"
                )
        self.base = base
        self.sizes = sizes_t
        self.subsizes = subsizes_t
        self.starts = starts_t
        self.base_dtype = base.dtype
        self.steps = (count, axis, step) if count > 1 else None
        self.blocks = count
        # Geometry is immutable: precompute the selection slices and element
        # counts.  With a partial axis before ``axis``, C order is not block
        # order: the view cuts ``axis`` into (blocks, extent), blocks first.
        slices = [slice(start, start + sub) for start, sub in zip(starts_t, subsizes_t)]
        lo, extent = starts_t[axis], subsizes_t[axis]
        if count > 1 and step != extent:
            slices[axis] = slice(lo, lo + (count - 1) * step + 1, step)
        else:
            slices[axis] = slice(lo, lo + count * extent)
        self._slices_cache = tuple(slices)
        self._size_cache, self._full_cache = count * math.prod(subsizes_t), math.prod(sizes_t)
        #: what a same-shaped type's view must match: (block, blocks, axis)
        self._shape_key = (subsizes_t, count, axis if count > 1 else 0)
        self._split = None
        if count > 1 and any(sub != 1 for sub in subsizes_t[:axis]):
            self._split = (
                (*subsizes_t[:axis], count, extent, *subsizes_t[axis + 1:]),
                (axis, *range(axis), *range(axis + 1, len(sizes_t) + 1)),
            )

    def size_elements(self) -> int:
        return self._size_cache

    def _slices(self) -> tuple[slice, ...]:
        return self._slices_cache

    def _grid(self, buffer: np.ndarray) -> np.ndarray:
        if (
            type(buffer) is np.ndarray
            and buffer.shape == self.sizes
            and buffer.dtype == self.base_dtype
            and buffer.flags.c_contiguous
        ):
            return buffer  # already the grid: nothing to flatten and reshape
        flat = self._require_buffer(buffer)
        if flat.size < self._full_cache:
            raise DatatypeError(
                f"buffer has {flat.size} elements, subarray full size is {self._full_cache}"
            )
        return flat[: self._full_cache].reshape(self.sizes)

    def view(self, buffer: np.ndarray) -> np.ndarray:
        selected = self._grid(buffer)[self._slices_cache]
        if self._split is None:
            return selected
        return selected.reshape(self._split[0]).transpose(self._split[1])

    def _fill(self, target: np.ndarray, pieces) -> None:
        """A copy program's fill: ``pieces`` into ``target``, this type's
        selection of a buffer before any split (``_grid(buffer)[_slices()]``,
        its block axis split in two when ``pieces`` carries a block axis).
        One NumPy call: ``np.copyto`` of one view (one block, or every block
        as one strided view), which drops the interpreter lock once, or
        ``np.concatenate`` of a list of blocks, which drops it once a block."""
        if type(pieces) is np.ndarray:
            np.copyto(target, pieces, casting="unsafe")
        else:
            np.concatenate(pieces, axis=self._shape_key[2], out=target, casting="unsafe")

    def copy_into(
        self, src: np.ndarray, dst: np.ndarray, dst_type: Optional[Datatype] = None
    ) -> int:
        # Blocks to same-shaped blocks (every DDR lane): no view / shape dispatch.
        target = dst_type if dst_type is not None else self
        if type(target) is not SubarrayType or target._shape_key != self._shape_key:
            return super().copy_into(src, dst, dst_type)
        source = self.view(src)
        np.copyto(target.view(dst), source, casting="unsafe")
        if TRANSFER_COUNTERS.enabled:
            TRANSFER_COUNTERS.count_copy("direct", source.nbytes, self.blocks)
        return source.nbytes

    def pack(self, buffer: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return _packed(self.view(buffer), out, self.base_dtype, self.blocks)

    def unpack(self, buffer: np.ndarray, data: np.ndarray) -> None:
        selected = self.view(buffer)
        selected[...] = np.asarray(data, dtype=self.base_dtype).reshape(selected.shape)
        if TRANSFER_COUNTERS.enabled:
            TRANSFER_COUNTERS.count_copy("unpack", self.size_bytes(), self.blocks)


class _Program(NamedTuple):
    """A struct's copy program into one destination type (:meth:`StructType._build`)."""

    #: The buffers it was built for, replayed while each is the same object.
    sources: tuple
    dests: tuple
    #: ``(buffer index, member, selection, blocks)`` per destination member.
    fills: tuple
    #: Whether the two sides may share memory: decided for a rank's lane to
    #: itself, the one copy that asks (``None`` until then).
    overlap: Optional[bool]


class StructType(Datatype):
    """Ordered ``(buffer index, member type)`` pairs over a *sequence* of
    ``nbuffers`` buffers — ``MPI_Type_create_struct`` over absolute addresses:
    how one message carries the parts a merged exchange round sends one peer
    out of several chunk buffers (:mod:`repro.core.schedule`), or the runs of
    an irregular merged receive lane (one buffer, which may be passed bare).

    The packed form is the members' packed forms concatenated.  The
    selection is never one ndarray, so :meth:`view` validates and returns
    ``None``.
    """

    def __init__(self, members: Sequence[tuple[int, Datatype]], nbuffers: int) -> None:
        self.members = tuple((int(index), member) for index, member in members)
        self.nbuffers = int(nbuffers)
        if not self.members:
            raise DatatypeError("struct type needs at least one member")
        self.base_dtype = self.members[0][1].base_dtype
        spans, stop = [], 0
        for index, member in self.members:
            if not 0 <= index < self.nbuffers:
                raise DatatypeError(f"struct member addresses buffer {index} of {self.nbuffers}")
            if member.base_dtype != self.base_dtype:
                raise DatatypeError(f"struct members mix base types: {member.base_dtype}")
            spans.append(slice(stop, stop + member.size_elements()))
            stop = spans[-1].stop
        self._spans = tuple(spans)
        self._size_cache = stop
        # The checks :meth:`view` makes, one per (buffer, grid) pair: a
        # subarray member's grid is all it checks, so members that share a
        # buffer and a grid share a check (the key says which).
        checks: dict = {}
        for index, member in self.members:
            if type(member) is SubarrayType:
                checks.setdefault((index, member.sizes, member.base_dtype), member)
            else:
                checks.setdefault((index, member), member)
        self._checks = tuple(checks.items())
        self.blocks = sum(member.blocks for _, member in self.members)
        self._fits: dict = {}  # copy_into's verdict per destination type
        self._programs: dict = {}  # copy_into's copy program per destination type

    def size_elements(self) -> int:
        return self._size_cache

    def _buffers(self, buffers: Sequence[np.ndarray]) -> Sequence[np.ndarray]:
        if self.nbuffers == 1 and isinstance(buffers, np.ndarray):
            return (buffers,)
        if not isinstance(buffers, (tuple, list)) or len(buffers) != self.nbuffers:
            got = len(buffers) if isinstance(buffers, (tuple, list)) else type(buffers)
            raise DatatypeError(f"struct type needs a sequence of {self.nbuffers} buffers: {got!r}")
        return buffers

    def view(self, buffers: Sequence[np.ndarray]) -> None:
        self._check(buffers)

    def _check(self, buffers: Sequence[np.ndarray], seen: Optional[set] = None) -> None:
        """:meth:`view`; with ``seen``, skipping the (buffer, grid) pairs in
        it and adding the rest: structs over one buffer sequence then check
        each pair once between them."""
        buffers = self._buffers(buffers)
        for key, member in self._checks:
            if seen is not None:
                if key in seen:
                    continue
                seen.add(key)
            (member._grid if type(member) is SubarrayType else member.view)(buffers[key[0]])

    def pack(self, buffers: Sequence[np.ndarray], out: Optional[np.ndarray] = None) -> np.ndarray:
        buffers = self._buffers(buffers)
        result = _staging(self._size_cache, out, self.base_dtype)
        for (index, member), span in zip(self.members, self._spans):
            member.pack(buffers[index], out=result[span])
        return result

    def unpack(self, buffers: Sequence[np.ndarray], data: np.ndarray) -> None:
        buffers = self._buffers(buffers)
        if data.size != self._size_cache:
            raise DatatypeError(f"struct type selects {self._size_cache} elements, got {data.size}")
        for (index, member), span in zip(self.members, self._spans):
            member.unpack(buffers[index], data[span])

    def copy_into(
        self, src: Sequence[np.ndarray], dst: Sequence[np.ndarray],
        dst_type: Optional[Datatype] = None,
    ) -> int:
        """Block for block between subarray types, or structs of them, whose
        blocks have the same sizes (the two ends of a merged exchange lane
        do): one ``np.concatenate`` of the source blocks into each destination
        member.  Otherwise through :meth:`pack`.

        The views this takes — every source block, and per destination member
        the selection it fills — are a *copy program* (:meth:`_program`), kept
        per destination type and replayed while every source and destination
        buffer is the very object it was built for (``is``: the program holds
        the buffers, so no address is recycled under it).  Blocks that sit at
        one stride in one array become one strided view, copied in one
        ``np.copyto`` (:func:`_one_view`).  A replay checks each destination
        buffer again; this method checks the sources first, :meth:`_copy`
        trusts a caller that just did."""
        self.view(src)
        return self._copy(src, dst, dst_type)

    def _copy(
        self, src: Sequence[np.ndarray], dst: Sequence[np.ndarray],
        dst_type: Optional[Datatype] = None,
    ) -> int:
        """:meth:`copy_into` with the sources already checked."""
        program = self._program(src, dst, dst_type)
        if program is None:
            return super().copy_into(src, dst, dst_type)
        return self._run(program)

    def _program(
        self, src: Sequence[np.ndarray], dst: Sequence[np.ndarray],
        dst_type: Optional[Datatype] = None, local: bool = False,
    ) -> Optional[_Program]:
        """The copy program from ``src`` into ``dst_type``'s selection of
        ``dst``, the sources already checked: the kept one, after checking
        each destination buffer again, else a new one; ``None`` when the two
        types do not pair off block for block.  A caller runs it with
        :meth:`_run`.  ``local`` (a rank's lane to itself) also has its
        ``overlap`` decided."""
        target = dst_type if dst_type is not None else self
        if target not in self._fits:  # a property of the two types: decided once
            self._fits[target] = self._fit(target)
        fit = self._fits[target]
        if fit is None:
            return None
        sources = self._buffers(src)
        dests = target._buffers(dst) if isinstance(target, StructType) else (dst,)
        program = self._programs.get(target)  # one read: another thread may replace it
        if (
            program is not None
            and all(map(is_, sources, program.sources))
            and all(map(is_, dests, program.dests))
        ):
            for index, member, _, _ in program.fills:
                member._grid(dests[index])
        else:
            program = self._build(target, fit, sources, dests)
        if local and program.overlap is None:
            decided = program._replace(overlap=_may_alias(sources, dests))
            if self._programs.get(target) is program:
                self._programs[target] = decided
            program = decided
        return program

    def _run(self, program: _Program) -> int:
        """Replay ``program``: one NumPy call per fill.  Returns bytes moved."""
        for _, member, selection, blocks in program.fills:
            member._fill(selection, blocks)
        if TRANSFER_COUNTERS.enabled:
            TRANSFER_COUNTERS.count_copy("direct", self.size_bytes(), self.blocks)
        return self.size_bytes()

    def _build(
        self, target: Datatype, fit: tuple, sources: Sequence[np.ndarray],
        dests: Sequence[np.ndarray],
    ) -> _Program:
        """The copy program into ``target``: ``(buffer index, member,
        selection, blocks)`` per destination member (``blocks`` one view or a
        list, see :meth:`SubarrayType._fill`).  Kept for replay unless a
        block had to be reshaped (that may copy it) or a buffer is not an
        exact ndarray."""
        pieces = []
        for index, member in self.members:
            if member.blocks == 1:
                pieces.append(member._grid(sources[index])[member._slices_cache])
            else:
                shape = (member.blocks, *member.subsizes)
                pieces += list(member.view(sources[index]).reshape(shape))
        parts, same_shapes = fit
        fills, first = [], 0
        for index, member in parts:
            blocks, first = pieces[first:first + member.blocks], first + member.blocks
            if not same_shapes:
                blocks = [piece.reshape(member.subsizes) for piece in blocks]
            selection = member._grid(dests[index])[member._slices_cache]
            fills.append((index, member, *_one_view(selection, blocks, member._shape_key[2])))
        program = _Program(tuple(sources), tuple(dests), tuple(fills), None)
        if same_shapes and all(
            type(buffer) is np.ndarray for buffer in program.sources + program.dests
        ):
            self._programs[target] = program
        return program

    def _fit(self, target: Datatype) -> Optional[tuple]:
        """``(target's members, whether each block already has its
        destination's shape)`` when both are subarrays whose blocks pair off
        by size, else ``None``."""
        parts = target.members if isinstance(target, StructType) else ((0, target),)
        if any(type(member) is not SubarrayType for _, member in self.members + parts):
            return None
        ours, theirs = (
            [member.subsizes for _, member in side for _ in range(member.blocks)]
            for side in (self.members, parts)
        )
        if list(map(math.prod, ours)) != list(map(math.prod, theirs)):
            return None
        return parts, ours == theirs


# ---------------------------------------------------------------------------
# Named type constants (the subset the paper's API touches, plus friends).
# ---------------------------------------------------------------------------

BYTE = NamedType(np.uint8, "MPI_BYTE")
CHAR = NamedType(np.int8, "MPI_CHAR")
SHORT = NamedType(np.int16, "MPI_SHORT")
INT = NamedType(np.int32, "MPI_INT")
LONG = NamedType(np.int64, "MPI_LONG")
UNSIGNED = NamedType(np.uint32, "MPI_UNSIGNED")
UNSIGNED_CHAR = NamedType(np.uint8, "MPI_UNSIGNED_CHAR")
UNSIGNED_SHORT = NamedType(np.uint16, "MPI_UNSIGNED_SHORT")
UNSIGNED_LONG = NamedType(np.uint64, "MPI_UNSIGNED_LONG")
FLOAT = NamedType(np.float32, "MPI_FLOAT")
DOUBLE = NamedType(np.float64, "MPI_DOUBLE")

_BY_DTYPE: dict[np.dtype, NamedType] = {}
for _named in (BYTE, CHAR, SHORT, INT, LONG, UNSIGNED_SHORT, UNSIGNED, UNSIGNED_LONG,
               FLOAT, DOUBLE):
    _BY_DTYPE.setdefault(_named.dtype, _named)


def named_type_for(dtype: np.dtype | type | str) -> NamedType:
    """Return the :class:`NamedType` for a NumPy dtype (creating one if new)."""
    key = np.dtype(dtype)
    found = _BY_DTYPE.get(key)
    if found is None:
        found = NamedType(key, f"MPI_{key.name.upper()}")
        _BY_DTYPE[key] = found
    return found
