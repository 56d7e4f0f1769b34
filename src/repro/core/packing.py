"""Datatype construction: lanes -> MPI subarray types (paper §III-C).

The paper: "custom subarray types are needed to describe multidimensional
subsets of data", hence ``MPI_Alltoallw`` rather than ``MPI_Alltoallv``.
Each send :class:`~repro.core.schedule.Lane` becomes a subarray type
*within the owned chunk's buffer*; each receive lane becomes a subarray
type *within the need buffer* (see
:meth:`repro.core.schedule.ExchangeSchedule.bind`).  This module also owns
the buffer-validation layer in front of every exchange.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..mpisim.datatypes import NamedType, SubarrayType
from .box import Box

if TYPE_CHECKING:
    from .schedule import ExchangeSchedule


def subarray_for(
    container: Box, region: Box, mpi_type: NamedType, components: int = 1
) -> SubarrayType:
    """Subarray type selecting ``region`` out of a buffer shaped like ``container``.

    Both boxes are in global paper-order coordinates; the result is expressed
    in the C-order coordinates of the container's NumPy buffer.  With
    ``components > 1`` each cell is an interleaved record of that many base
    values, stored as a trailing (fastest) axis of the buffer.
    """
    sizes = container.np_shape()
    subsizes = region.np_shape()
    # (SubarrayType rejects a region that leaves the container)
    starts = tuple(r - c for r, c in zip(reversed(region.offset), reversed(container.offset)))
    if components > 1:
        sizes = sizes + (components,)
        subsizes = subsizes + (components,)
        starts = starts + (0,)
    return SubarrayType(mpi_type, sizes=sizes, subsizes=subsizes, starts=starts)


class BufferCache:
    """Remembers the last buffer set :func:`check_buffers` accepted for a schedule.

    The paper's repeated-call pattern (``DDR_ReorganizeData`` once per
    simulation frame, same buffers every time) revalidates identical
    geometry on every call.  The cache keys each buffer by
    ``(id, dtype, shape, strides)`` and holds strong references to the
    validated arrays, so a matching signature proves the same live objects
    with unchanged geometry — ``id`` alone would be unsafe because CPython
    recycles addresses of freed objects.  Only ndarray inputs are cacheable;
    anything else (lists, scalars) falls through to a full revalidation.
    """

    __slots__ = ("_signature", "_own", "_need", "resident_bytes", "peak_bytes")

    def __init__(self) -> None:
        self._signature: Optional[tuple] = None
        self._own: list[np.ndarray] = []
        self._need: Optional[np.ndarray] = None
        #: Bytes of user buffers the cache currently holds strong references
        #: to, and the high-water mark across the cache's lifetime — the
        #: observability pair the serving hub exports as gauges.
        self.resident_bytes: int = 0
        self.peak_bytes: int = 0

    @staticmethod
    def _buffer_key(buf) -> Optional[tuple]:
        if not isinstance(buf, np.ndarray):
            return None
        return (id(buf), buf.dtype, buf.shape, buf.strides)

    def signature(self, data_own, data_need) -> Optional[tuple]:
        """Cache key for a buffer set, or ``None`` when not cacheable."""
        keys: list[tuple] = []
        for buf in data_own:
            key = self._buffer_key(buf)
            if key is None:
                return None
            keys.append(key)
        if data_need is None:
            keys.append(("no-need",))
        else:
            key = self._buffer_key(data_need)
            if key is None:
                return None
            keys.append(("need",) + key)
        return tuple(keys)

    def lookup(
        self, signature: Optional[tuple]
    ) -> Optional[tuple[list[np.ndarray], Optional[np.ndarray]]]:
        if signature is None or signature != self._signature:
            return None
        return self._own, self._need

    def store(
        self,
        signature: Optional[tuple],
        own: list[np.ndarray],
        need: Optional[np.ndarray],
    ) -> None:
        if signature is None:
            return
        self._signature = signature
        self._own = own
        self._need = need
        self.resident_bytes = sum(buf.nbytes for buf in own) + (
            need.nbytes if need is not None else 0
        )
        if self.resident_bytes > self.peak_bytes:
            self.peak_bytes = self.resident_bytes

    def clear(self) -> None:
        """Drop the cached buffer set (e.g. when its mapping is invalidated)."""
        self._signature = None
        self._own = []
        self._need = None
        self.resident_bytes = 0


def check_buffers_cached(
    schedule: ExchangeSchedule,
    dtype: np.dtype,
    data_own: list[np.ndarray],
    data_need: Optional[np.ndarray],
    components: int,
    cache: BufferCache,
) -> tuple[list[np.ndarray], Optional[np.ndarray]]:
    """:func:`check_buffers`, skipping revalidation on a cache hit."""
    signature = cache.signature(data_own, data_need)
    cached = cache.lookup(signature)
    if cached is not None:
        return cached
    own, need = check_buffers(schedule, dtype, data_own, data_need, components)
    cache.store(signature, own, need)
    return own, need


def check_buffers(
    schedule: ExchangeSchedule,
    dtype: np.dtype,
    data_own: list[np.ndarray],
    data_need: Optional[np.ndarray],
    components: int = 1,
) -> tuple[list[np.ndarray], Optional[np.ndarray]]:
    """Validate user buffers against the schedule's geometry; returns normalised views.

    Owned buffers may be passed with the natural C-order shape of their chunk
    (with a trailing component axis when ``components > 1``) or flat; either
    way they must be C-contiguous and hold exactly ``volume * components``
    base values.
    """
    if len(data_own) != len(schedule.own_chunks):
        raise ValueError(
            f"rank {schedule.rank}: {len(data_own)} owned buffers for "
            f"{len(schedule.own_chunks)} declared chunks"
        )
    own_norm: list[np.ndarray] = []
    for index, (chunk, buf) in enumerate(zip(schedule.own_chunks, data_own)):
        arr = np.asarray(buf)
        if arr.dtype != dtype:
            raise ValueError(
                f"rank {schedule.rank} chunk {index}: buffer dtype {arr.dtype} "
                f"!= descriptor {dtype}"
            )
        if arr.size != chunk.volume() * components:
            raise ValueError(
                f"rank {schedule.rank} chunk {index}: buffer has {arr.size} values, "
                f"chunk {chunk} needs {chunk.volume()} x {components}"
            )
        if not arr.flags["C_CONTIGUOUS"]:
            raise ValueError(f"rank {schedule.rank} chunk {index}: buffer must be C-contiguous")
        own_norm.append(arr)

    need_norm: Optional[np.ndarray] = None
    if schedule.need is not None and not schedule.need.is_empty():
        if data_need is None:
            raise ValueError(f"rank {schedule.rank} declared a need but passed no need buffer")
        arr = np.asarray(data_need)
        if arr.dtype != dtype:
            raise ValueError(
                f"rank {schedule.rank}: need buffer dtype {arr.dtype} != descriptor {dtype}"
            )
        if arr.size != schedule.need.volume() * components:
            raise ValueError(
                f"rank {schedule.rank}: need buffer has {arr.size} values, "
                f"need {schedule.need} needs {schedule.need.volume()} x {components}"
            )
        if not arr.flags["C_CONTIGUOUS"]:
            raise ValueError(f"rank {schedule.rank}: need buffer must be C-contiguous")
        need_norm = arr
    return own_norm, need_norm
