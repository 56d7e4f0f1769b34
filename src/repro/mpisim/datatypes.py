"""MPI-like derived datatypes over NumPy buffers.

The real DDR library describes strided multidimensional subsets with
``MPI_Type_create_subarray`` and hands them to ``MPI_Alltoallw``.  This
module reproduces that machinery: a :class:`Datatype` knows how to *pack*
elements out of a C-contiguous NumPy buffer and *unpack* them back in.

Only the features DDR needs are implemented — named types, contiguous,
vector, subarray and struct — but each follows the MPI definition closely enough
that the tests can validate against hand-computed layouts.

Beyond pack/unpack, every type supports a *zero-copy protocol*: ``view``
exposes the selected elements as an ndarray view (no data movement) when
the selection is expressible with basic slicing, and ``copy_into`` moves a
selection from one buffer straight into another's selection — one
``np.copyto`` instead of pack + unpack — falling back to staging only for
selections that cannot be viewed (e.g. overlapping vectors).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from ..utils.timing import TRANSFER_COUNTERS
from .errors import DatatypeError

ORDER_C = "C"
ORDER_FORTRAN = "F"


class Datatype:
    """Base class.  Subclasses define element selection within a buffer."""

    #: NumPy scalar dtype of the leaves of this type tree.
    base_dtype: np.dtype

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

    def is_contiguous(self) -> bool:
        """True when the selection is one flat run of the buffer, so a
        direct copy degrades to a single memcpy-style block move."""
        return False

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


def _packed(selected: np.ndarray, out: Optional[np.ndarray], dtype: np.dtype) -> np.ndarray:
    """``selected`` (a view in pack order) copied into a :func:`_staging` array."""
    result = _staging(selected.size, out, dtype)
    np.copyto(result.reshape(selected.shape), selected)
    if TRANSFER_COUNTERS.enabled:
        TRANSFER_COUNTERS.count_copy("pack", selected.size * dtype.itemsize)
    return result


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

    def is_contiguous(self) -> bool:
        return True

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

    def Create_vector(self, count: int, blocklength: int, stride: int) -> "VectorType":
        return VectorType(self, count, blocklength, stride)

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

    def is_contiguous(self) -> bool:
        return True

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


class VectorType(Datatype):
    """``count`` blocks of ``blocklength`` elements, ``stride`` elements apart."""

    def __init__(self, base: NamedType, count: int, blocklength: int, stride: int) -> None:
        if count < 0 or blocklength < 0:
            raise DatatypeError("count and blocklength must be non-negative")
        self.base = base
        self.count = int(count)
        self.blocklength = int(blocklength)
        self.stride = int(stride)
        self.base_dtype = base.dtype
        # Geometry is immutable, so the gather indices (and extent) are
        # computed once here rather than on every pack/unpack.
        starts = np.arange(self.count) * self.stride
        offsets = np.arange(self.blocklength)
        self._indices_cache = (starts[:, None] + offsets[None, :]).reshape(-1)
        self._extent_cache = (
            0 if self.count == 0 else (self.count - 1) * self.stride + self.blocklength
        )

    def size_elements(self) -> int:
        return self.count * self.blocklength

    def is_contiguous(self) -> bool:
        return self.count <= 1 or self.blocklength == self.stride

    def _extent(self) -> int:
        return self._extent_cache

    def _indices(self) -> np.ndarray:
        return self._indices_cache

    def view(self, buffer: np.ndarray) -> Optional[np.ndarray]:
        flat = self._require_buffer(buffer)
        if flat.size < self._extent_cache:
            raise DatatypeError("buffer smaller than vector extent")
        if self.count == 0 or self.blocklength == 0:
            return flat[:0]
        if self.is_contiguous():
            return flat[: self.count * self.blocklength]
        if self.blocklength < self.stride and flat.size >= self.count * self.stride:
            rows = flat[: self.count * self.stride].reshape(self.count, self.stride)
            return rows[:, : self.blocklength]
        # Overlapping blocks (blocklength > stride), or a buffer that ends
        # exactly at the extent: not expressible as a basic-slicing view.
        return None

    def pack(self, buffer: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        selected = self.view(buffer)
        if selected is not None:
            return _packed(selected, out, self.base_dtype)
        flat = self._require_buffer(buffer)
        gathered = flat[self._indices_cache]  # fancy indexing gathers into a new array
        if TRANSFER_COUNTERS.enabled:
            TRANSFER_COUNTERS.count_alloc(self.size_bytes())
            TRANSFER_COUNTERS.count_copy("pack", self.size_bytes())
        if out is None:
            return gathered
        return _packed(gathered, out, self.base_dtype)

    def unpack(self, buffer: np.ndarray, data: np.ndarray) -> None:
        flat = self._require_buffer(buffer)
        if flat.size < self._extent_cache:
            raise DatatypeError("buffer smaller than vector extent")
        flat[self._indices_cache] = data
        if TRANSFER_COUNTERS.enabled:
            TRANSFER_COUNTERS.count_copy("unpack", self.size_bytes())


class SubarrayType(Datatype):
    """An N-dimensional sub-block of an N-dimensional array (MPI subarray).

    ``sizes`` is the full array shape, ``subsizes`` the block shape and
    ``starts`` the block origin, exactly as in ``MPI_Type_create_subarray``.
    Only C (row-major) order is supported; DDR never uses Fortran order.
    """

    def __init__(
        self,
        base: NamedType,
        sizes: Sequence[int],
        subsizes: Sequence[int],
        starts: Sequence[int],
        order: str = ORDER_C,
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
        for full, sub, start in zip(sizes_t, subsizes_t, starts_t):
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
        # Geometry is immutable: precompute the selection slices, element
        # counts, and whether the selection is a single contiguous run of
        # the flat buffer (true when every axis except the slowest-varying
        # non-trivial one is taken whole).
        self._slices_cache = tuple(
            slice(start, start + sub) for start, sub in zip(starts_t, subsizes_t)
        )
        total = 1
        for sub in subsizes_t:
            total *= sub
        self._size_cache = total
        full = 1
        for size in sizes_t:
            full *= size
        self._full_cache = full
        contiguous = True
        for axis in range(len(sizes_t) - 1, -1, -1):
            if subsizes_t[axis] == sizes_t[axis]:
                continue
            # First (fastest-varying) partial axis found; every slower axis
            # must then select a single index for the run to stay flat.
            contiguous = all(s == 1 for s in subsizes_t[:axis])
            break
        self._contiguous_cache = contiguous or total <= 1

    def size_elements(self) -> int:
        return self._size_cache

    def is_contiguous(self) -> bool:
        return self._contiguous_cache

    def _slices(self) -> tuple[slice, ...]:
        return self._slices_cache

    def _full_elements(self) -> int:
        return self._full_cache

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
        return self._grid(buffer)[self._slices_cache]

    def copy_into(
        self, src: np.ndarray, dst: np.ndarray, dst_type: Optional[Datatype] = None
    ) -> int:
        # Block to same-shaped block (every DDR lane): no view / shape dispatch.
        target = dst_type if dst_type is not None else self
        if type(target) is not SubarrayType or target.subsizes != self.subsizes:
            return super().copy_into(src, dst, dst_type)
        source = self._grid(src)[self._slices_cache]
        np.copyto(target._grid(dst)[target._slices_cache], source, casting="unsafe")
        if TRANSFER_COUNTERS.enabled:
            TRANSFER_COUNTERS.count_copy("direct", source.nbytes)
        return source.nbytes

    def pack(self, buffer: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return _packed(self._grid(buffer)[self._slices_cache], out, self.base_dtype)

    def unpack(self, buffer: np.ndarray, data: np.ndarray) -> None:
        grid = self._grid(buffer)
        grid[self._slices_cache] = np.asarray(data, dtype=self.base_dtype).reshape(
            self.subsizes
        )
        if TRANSFER_COUNTERS.enabled:
            TRANSFER_COUNTERS.count_copy("unpack", self.size_bytes())


@dataclass(slots=True)
class _Run:
    """Members ``first:stop`` of a :class:`StructType`, selected from buffer
    ``index`` as one view: ``slices`` of grid ``grid``, whose ``axis`` holds
    the members one after another.  Any member but a subarray is a run of
    one with no grid, which moves through the member's own methods."""

    first: int
    stop: int
    index: int
    member: Datatype
    #: the run's elements in the packed form
    span: slice
    grid: Optional[int] = None
    slices: tuple[slice, ...] = ()
    axis: int = 0
    #: the shape of :meth:`packed_order`, which ``span`` of the packed form
    #: takes to line up with it element for element
    shape: tuple[int, ...] = ()
    #: for ``axis > 0``, the view with ``axis`` cut into (members, extent)
    #: and then the members' axis moved first (a view along axis 0 already
    #: reads in packed order)
    split: Optional[tuple[int, ...]] = None
    perm: Optional[tuple[int, ...]] = None

    @classmethod
    def stacking(
        cls, first: int, stop: int, index: int, member: SubarrayType, span: slice,
        grid: int, axis: int, step: int,
    ) -> "_Run":
        """The run of ``member`` and the ``stop - first - 1`` members after
        it, ``step`` apart along ``axis``."""
        count, sub, lo = stop - first, member.subsizes, member.starts[axis]
        if count == 1:
            return cls(first, stop, index, member, span, grid, member._slices_cache, 0, sub)
        along = (
            slice(lo, lo + count * sub[axis]) if step == sub[axis]
            else slice(lo, lo + (count - 1) * step + 1, step)
        )
        slices = member._slices_cache[:axis] + (along,) + member._slices_cache[axis + 1:]
        return cls(
            first, stop, index, member, span, grid, slices, axis,
            (count * sub[0], *sub[1:]) if axis == 0 else (count, *sub),
            None if axis == 0 else (*sub[:axis], count, sub[axis], *sub[axis + 1:]),
            None if axis == 0 else (axis, *range(axis), *range(axis + 1, len(sub) + 1)),
        )

    def packed_order(self, grids: Sequence[np.ndarray]) -> np.ndarray:
        """The run's view of ``grids``, shaped :attr:`shape`."""
        view = grids[self.grid][self.slices]
        return view if self.split is None else view.reshape(self.split).transpose(self.perm)


def _step(before: SubarrayType, after: SubarrayType) -> Optional[tuple[int, int]]:
    """``(axis, step)`` when ``after`` can follow ``before`` in a run: one
    geometry, ``starts`` moved along exactly one axis, by the extent there or
    by any positive step where the extent is 1."""
    if after.sizes != before.sizes or after.subsizes != before.subsizes:
        return None
    moved = list(map(operator.sub, after.starts, before.starts))
    if moved.count(0) != len(moved) - 1:
        return None
    step = sum(moved)
    axis = moved.index(step)
    extent = before.subsizes[axis]
    return (axis, step) if step == extent or (extent == 1 and step > 0) else None


def _plan_runs(
    members: tuple[tuple[int, Datatype], ...], sizes: tuple[int, ...],
    selections: tuple[Optional[tuple[int, tuple[slice, ...]]], ...],
) -> tuple[_Run, ...]:
    """``members`` cut into maximal runs, first to last."""
    stops = list(accumulate(sizes))
    runs, first = [], 0
    while first < len(members):
        index, member = members[first]
        stop, axis, step = first + 1, 0, 0
        while (
            selections[first] is not None and stop < len(members)
            and members[stop][0] == index and selections[stop] is not None
        ):
            moved = _step(members[stop - 1][1], members[stop][1])
            if moved is None or (step and moved != (axis, step)):
                break
            axis, step = moved
            stop += 1
        span = slice(stops[first] - sizes[first], stops[stop - 1])
        if selections[first] is None:
            runs.append(_Run(first, stop, index, member, span))
        else:
            runs.append(
                _Run.stacking(first, stop, index, member, span, selections[first][0], axis, step)
            )
        first = stop
    return tuple(runs)


class StructType(Datatype):
    """Ordered ``(buffer index, member type)`` pairs over a *sequence* of
    ``nbuffers`` buffers — ``MPI_Type_create_struct`` over absolute addresses:
    how one message carries the lanes several exchange rounds address to one
    peer (a merged round of :mod:`repro.core.schedule`).

    The packed form is the members' packed forms concatenated.  Construction
    plans the members into :attr:`runs`: maximal sequences of consecutive
    :class:`SubarrayType` members of one buffer and one geometry whose
    ``starts`` advance by one constant step along one axis — the extent there
    (one block), or any step over extent 1 (a stepped slice).  A run is one
    view of its buffer and every operation moves it with one NumPy call; any
    other member is a run of one that uses its own methods.  Each ``(buffer,
    sizes)`` grid is validated once per call.  The selection is never one
    ndarray, so :meth:`view` validates and returns ``None``.
    """

    def __init__(self, members: Sequence[tuple[int, Datatype]], nbuffers: int) -> None:
        self.members = tuple((int(index), member) for index, member in members)
        self.nbuffers = int(nbuffers)
        if not self.members:
            raise DatatypeError("struct type needs at least one member")
        self.base_dtype = self.members[0][1].base_dtype
        # One grid per distinct (buffer, sizes), in order of first use, each
        # validated through the first subarray member that addresses it.
        grids: dict[tuple, tuple[int, SubarrayType]] = {}
        sizes, selections, shapes = [], [], []
        for index, member in self.members:
            if not 0 <= index < self.nbuffers:
                raise DatatypeError(f"struct member addresses buffer {index} of {self.nbuffers}")
            if member.base_dtype != self.base_dtype:
                raise DatatypeError(f"struct members mix base types: {member.base_dtype}")
            sizes.append(member.size_elements())
            if type(member) is SubarrayType:
                grid = grids.setdefault((index, member.sizes), (len(grids), member))[0]
                selections.append((grid, member._slices_cache))
                shapes.append(member.subsizes)
            else:
                selections.append(None)
                shapes.append(None)
        self._sizes = tuple(sizes)
        self._size_cache = sum(sizes)
        self._grids = tuple((index, member) for (index, _), (_, member) in grids.items())
        #: per member: (grid, slices) of a subarray, else ``None``
        self._selections = tuple(selections)
        #: per member: the subsizes of a subarray, else ``None``
        self._shapes = tuple(shapes)
        self.runs = _plan_runs(self.members, self._sizes, self._selections)
        # What the runs with a grid move, counted once a call: one copy per
        # member, as if each had moved alone.  Other members count their own.
        stacked = [run for run in self.runs if run.grid is not None]
        self._stacked = sum(run.stop - run.first for run in stacked)
        self._stacked_bytes = self.base_dtype.itemsize * sum(
            run.span.stop - run.span.start for run in stacked
        )

    def size_elements(self) -> int:
        return self._size_cache

    def _buffers(self, buffers: Sequence[np.ndarray]) -> Sequence[np.ndarray]:
        if not isinstance(buffers, (tuple, list)) or len(buffers) != self.nbuffers:
            got = len(buffers) if isinstance(buffers, (tuple, list)) else type(buffers)
            raise DatatypeError(f"struct type needs a sequence of {self.nbuffers} buffers: {got!r}")
        return buffers

    def _grid_arrays(self, buffers: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Each distinct ``(buffer, sizes)`` grid, validated once."""
        return [member._grid(buffers[index]) for index, member in self._grids]

    def _count(self, kind: str) -> None:
        if TRANSFER_COUNTERS.enabled and self._stacked:
            TRANSFER_COUNTERS.count_copy(kind, self._stacked_bytes, self._stacked)

    def view(self, buffers: Sequence[np.ndarray]) -> None:
        buffers = self._buffers(buffers)
        self._grid_arrays(buffers)
        for run in self.runs:
            if run.grid is None:
                run.member.view(buffers[run.index])

    def pack(self, buffers: Sequence[np.ndarray], out: Optional[np.ndarray] = None) -> np.ndarray:
        buffers = self._buffers(buffers)
        grids = self._grid_arrays(buffers)
        result = _staging(self._size_cache, out, self.base_dtype)
        for run in self.runs:
            if run.grid is None:
                run.member.pack(buffers[run.index], out=result[run.span])
            else:
                np.copyto(result[run.span].reshape(run.shape), run.packed_order(grids))
        self._count("pack")
        return result

    def unpack(self, buffers: Sequence[np.ndarray], data: np.ndarray) -> None:
        buffers = self._buffers(buffers)
        if data.size != self._size_cache:
            raise DatatypeError(f"struct type selects {self._size_cache} elements, got {data.size}")
        grids = self._grid_arrays(buffers)
        for run in self.runs:
            if run.grid is None:
                run.member.unpack(buffers[run.index], data[run.span])
            else:
                run.packed_order(grids)[...] = data[run.span].reshape(run.shape)
        self._count("unpack")

    def copy_into(
        self, src: Sequence[np.ndarray], dst: Sequence[np.ndarray],
        dst_type: Optional[Datatype] = None,
    ) -> int:
        """Run by run of the destination when both types have the same member
        sizes (the two ends of a merged exchange lane do): one
        ``np.concatenate`` of the source members into each run's view.
        Otherwise through :meth:`pack`."""
        target = dst_type if dst_type is not None else self
        if not isinstance(target, StructType) or target._sizes != self._sizes:
            return super().copy_into(src, dst, dst_type)
        src, dst = self._buffers(src), target._buffers(dst)
        pieces = self._pieces(src, target._shapes)
        grids = target._grid_arrays(dst)
        for run in target.runs:
            if run.grid is None:
                index, member = self.members[run.first]
                member.copy_into(src[index], dst[run.index], run.member)
            else:
                np.concatenate(
                    pieces[run.first:run.stop], axis=run.axis,
                    out=grids[run.grid][run.slices], casting="unsafe",
                )
        target._count("direct")
        return self.size_bytes()

    def _pieces(self, buffers: Sequence[np.ndarray], shapes: tuple) -> list:
        """Each member's selection of ``buffers`` as an array of ``shapes[i]``
        (``None`` where that is ``None``: the destination member copies it)."""
        grids = self._grid_arrays(buffers)
        if shapes == self._shapes and None not in shapes:  # views, as they are
            return [grids[grid][slices] for grid, slices in self._selections]
        pieces = []
        for (index, member), selection, shape in zip(self.members, self._selections, shapes):
            if shape is None:
                pieces.append(None)
                continue
            if selection is not None:
                piece = grids[selection[0]][selection[1]]
            else:
                piece = member.view(buffers[index])
                if piece is None:
                    piece = member.pack(buffers[index])
            pieces.append(piece.reshape(shape))
        return pieces


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
