"""The DDR public API.

Two layers:

1. The paper's three C-style calls, parameter-for-parameter (Algorithm 1 /
   Table I): :func:`DDR_NewDataDescriptor`, :func:`DDR_SetupDataMapping`,
   :func:`DDR_ReorganizeData`.  The only deviation from the C signatures is
   an explicit ``comm`` argument where the C library implicitly used
   ``MPI_COMM_WORLD`` — unavoidable in an in-process runtime that may host
   several worlds at once.

2. :class:`Redistributor`, the idiomatic wrapper the rest of this repository
   builds on (boxes instead of flat arrays, backend selection, reuse across
   time steps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..mpisim.comm import Communicator
from ..mpisim.datatypes import NamedType
from ..mpisim.transport import TRANSPORT_PACKED, TRANSPORT_SHM, TRANSPORT_ZEROCOPY
from .box import Box, boxes_from_flat
from .descriptor import DataDescriptor, DataLayout
from .engine import (
    Buffers,
    ExchangeProgress,
    check_backend,
    default_backend,
    execute,
    normalise_own,
)
from .mapping import LocalMapping, setup_data_mapping


def DDR_NewDataDescriptor(
    nprocs: int,
    layout: DataLayout | int,
    mpi_type: NamedType | np.dtype | type | str,
    element_size: Optional[int] = None,
) -> DataDescriptor:
    """Create the opaque descriptor (paper §III-A).

    Parameters mirror the C call: process count, ``DATA_TYPE_{1,2,3}D``,
    the element MPI type, and the element byte size (``sizeof(float)``).
    """
    return DataDescriptor.create(nprocs, layout, mpi_type, element_size)


def DDR_SetupDataMapping(
    comm: Communicator,
    rank: int,
    nprocs: int,
    chunks_own: int,
    dims_own: Sequence[int],
    offsets_own: Sequence[int],
    dims_need: Sequence[int],
    offsets_need: Sequence[int],
    descriptor: DataDescriptor,
    validate: bool = True,
) -> None:
    """Collective mapping setup (paper §III-B, Table I parameters P1-P8).

    ``dims_own``/``offsets_own`` are the flat per-chunk arrays of Algorithm 1
    (``chunks_own * ndims`` values each, fastest axis first);
    ``dims_need``/``offsets_need`` describe the single needed chunk.
    """
    if rank != comm.rank:
        raise ValueError(f"rank argument {rank} does not match communicator rank {comm.rank}")
    if nprocs != comm.size:
        raise ValueError(
            f"nprocs argument {nprocs} does not match communicator size {comm.size}"
        )
    ndims = descriptor.ndims
    own_boxes = boxes_from_flat(chunks_own, ndims, dims_own, offsets_own)
    need_dims = [int(v) for v in np.asarray(dims_need).reshape(-1)]
    need_offsets = [int(v) for v in np.asarray(offsets_need).reshape(-1)]
    if len(need_dims) != ndims or len(need_offsets) != ndims:
        raise ValueError(
            f"need dims/offsets must have {ndims} values, got "
            f"{len(need_dims)}/{len(need_offsets)}"
        )
    need = Box(tuple(need_offsets), tuple(need_dims))
    setup_data_mapping(comm, descriptor, own_boxes, need, validate=validate)


def DDR_ReorganizeData(
    comm: Communicator,
    nprocs: int,
    data_own: Buffers,
    data_need: Optional[np.ndarray],
    descriptor: DataDescriptor,
) -> None:
    """Exchange the data (paper §III-C) under the process default backend
    (``DDR_BACKEND``, else the paper's ``Alltoallw``).

    Safe to call repeatedly on *new data with the same layout* — the set-up
    step prebuilt every subarray datatype (the paper's "dynamic data"
    property used by the in-transit use case).
    """
    if nprocs != comm.size:
        raise ValueError(
            f"nprocs argument {nprocs} does not match communicator size {comm.size}"
        )
    mapping = descriptor.plan
    if not isinstance(mapping, LocalMapping):
        raise RuntimeError(
            "DDR_SetupDataMapping must be called before DDR_ReorganizeData"
        )
    execute(comm, mapping, data_own, data_need, default_backend())


class Redistributor:
    """Reusable DDR pipeline for one (layout, dtype, communicator) triple.

    >>> red = Redistributor(comm, ndims=2, dtype=np.float32)
    >>> red.setup(own=[Box((0, rank), (8, 1)), Box((0, rank + 4), (8, 1))],
    ...           need=Box((4 * (rank % 2), 4 * (rank // 2)), (4, 4)))
    >>> red.exchange([row0, row1], quadrant)

    ``exchange`` may be called every time step on fresh data — the mapping
    is computed once (the paper's "dynamic data" property).  Repeat calls
    with the same buffers also skip revalidation and staging allocations
    (see :class:`~repro.core.packing.BufferCache`).

    ``backend`` picks how rounds hit the wire: ``"alltoallw"`` (dense
    collective), ``"p2p"`` (direct sends), ``"auto"`` (per-round selection
    driven by the plan's sparsity), or ``"bounded"`` (another name for
    ``"p2p"``); under every one a staged round over the memory budget runs
    in pieces.  ``None`` follows the process default — the ``DDR_BACKEND``
    environment variable when set, otherwise ``"alltoallw"``.

    ``transport`` picks the mpisim wire for every lane of every exchange
    this instance performs, under every backend: ``"zerocopy"`` (receiver
    copies straight out of the sender's live buffer), ``"packed"`` (classic
    pack -> payload -> unpack), ``"shm"`` (staged through shared-memory
    segments), or ``None`` to follow the process default — the
    ``DDR_TRANSPORT`` environment variable when set, otherwise
    ``"zerocopy"``.  Retries, deadlines and corruption handling follow the
    :class:`~repro.faults.ReliabilityPolicy` installed with the fault plan.

    A ``Redistributor`` may hold several live mappings at once: ``setup()``
    replaces (and invalidates) the *active* mapping, while
    ``new_mapping()`` returns an independent handle that stays valid and
    can be passed to ``exchange(..., mapping=...)`` — e.g. two layouts over
    the same communicator, exchanged alternately.
    """

    def __init__(
        self,
        comm: Communicator,
        ndims: int,
        dtype: np.dtype | type | str,
        backend: Optional[str] = None,
        components: int = 1,
        transport: Optional[str] = None,
    ) -> None:
        if transport not in (None, TRANSPORT_ZEROCOPY, TRANSPORT_PACKED, TRANSPORT_SHM):
            raise ValueError(
                f"unknown transport {transport!r} "
                f"(use 'zerocopy', 'packed', 'shm', or None)"
            )
        self.comm = comm
        self.descriptor = DataDescriptor.create(
            comm.size, DataLayout(ndims), dtype, components=components
        )
        self.backend = check_backend(default_backend() if backend is None else backend)
        self.transport = transport

    def setup(
        self,
        own: Sequence[Box],
        need: Optional[Box],
        validate: bool = True,
    ) -> LocalMapping:
        """Collective; every rank passes its own chunks and its needed box.

        Re-calling ``setup()`` is cheap reconfiguration: the new mapping
        becomes the active one and the previous active mapping is
        invalidated (its caches drop; further use raises
        :class:`~repro.core.mapping.StaleMappingError`).
        """
        return setup_data_mapping(self.comm, self.descriptor, own, need, validate=validate)

    def new_mapping(
        self,
        own: Sequence[Box],
        need: Optional[Box],
        validate: bool = True,
    ) -> LocalMapping:
        """Collective; build an independent mapping without touching the
        active one.  The returned handle stays valid across later
        ``setup()``/``new_mapping()`` calls and is exchanged via
        ``exchange(..., mapping=handle)``."""
        return setup_data_mapping(
            self.comm, self.descriptor, own, need, validate=validate, attach=False
        )

    @property
    def mapping(self) -> LocalMapping:
        mapping = self.descriptor.plan
        if not isinstance(mapping, LocalMapping):
            raise RuntimeError("setup() has not been called")
        return mapping

    @property
    def nrounds(self) -> int:
        return self.mapping.nrounds

    def exchange(
        self,
        own_buffers: Buffers,
        need_buffer: Optional[np.ndarray],
        mapping: Optional[LocalMapping] = None,
        progress: Optional[ExchangeProgress] = None,
    ) -> ExchangeProgress:
        """Redistribute one generation of data through the prepared mapping.

        ``mapping`` defaults to the active one; pass a handle from
        ``new_mapping()`` to exchange through an alternative layout.
        Returns the exchange's :class:`~repro.core.engine.ExchangeProgress`;
        after a failure, pass it back as ``progress`` to resume without
        re-running the rounds that already completed.
        """
        return execute(
            self.comm,
            self.mapping if mapping is None else mapping,
            own_buffers,
            need_buffer,
            self.backend,
            self.transport,
            progress,
        )

    def gather_need(
        self,
        own_buffers: Buffers,
        fill: float | int = 0,
        reuse_out: bool = False,
        mapping: Optional[LocalMapping] = None,
    ) -> Optional[np.ndarray]:
        """Convenience: allocate the need buffer, exchange, and return it.

        With ``reuse_out=True`` the same output array is returned on every
        call (refilled and re-exchanged), so a per-time-step loop allocates
        nothing; the caller must be done with the previous generation.  The
        reuse pool lives on the mapping, so concurrent mappings reuse
        independently.
        """
        active = self.mapping if mapping is None else mapping
        need = active.need
        if need is None or need.is_empty():
            self.exchange(own_buffers, None, mapping=active)
            return None
        shape = need.np_shape()
        if self.descriptor.components > 1:
            shape = shape + (self.descriptor.components,)
        if reuse_out:
            out = active.pool.take_filled(shape, self.descriptor.dtype, fill)
        else:
            out = np.full(shape, fill, dtype=self.descriptor.dtype)
        self.exchange(own_buffers, out, mapping=active)
        return out

    def migrate(
        self,
        own: Sequence[Box],
        need: Optional[Box],
        own_buffers: Buffers,
        validate: bool = True,
    ) -> Optional[np.ndarray]:
        """Collective one-generation data move: ``own_buffers`` laid out as
        ``own`` go where every rank's ``need`` says, through a mapping built
        for this call and invalidated after it; the active mapping is left
        as it was.  Returns this rank's ``need`` region (``None`` without
        one).  The data move of every reconfiguration — :meth:`resize`, its
        joiners, the in-transit pipeline's re-split and crash restore."""
        migration = self.new_mapping(own=own, need=need, validate=validate)
        data = self.gather_need(own_buffers, mapping=migration)
        migration.invalidate()
        return data

    # -- elastic malleability (resize / retarget) ----------------------------

    def _clone_for(self, comm: Communicator) -> "Redistributor":
        """A fresh redistributor with this one's configuration on ``comm``."""
        return Redistributor(
            comm,
            self.descriptor.ndims,
            self.descriptor.mpi_type,
            backend=self.backend,
            components=self.descriptor.components,
            transport=self.transport,
        )

    def retarget(self, comm: Communicator) -> None:
        """Re-point this redistributor at a (possibly resized) communicator.

        The shared reconfiguration primitive under both voluntary
        :meth:`resize` and crash recovery
        (:class:`repro.resilience.ResilientRedistributor`): the active
        mapping — built for the old geometry — is invalidated (further use
        raises :class:`~repro.core.mapping.StaleMappingError`) and the
        descriptor is rebuilt for the new communicator size.  Local and
        cheap; call :meth:`setup` afterwards to declare the new layout.
        """
        plan = self.descriptor.plan
        if isinstance(plan, LocalMapping):
            plan.invalidate()
        self.comm = comm
        self.descriptor = DataDescriptor.create(
            comm.size,
            self.descriptor.layout,
            self.descriptor.mpi_type,
            components=self.descriptor.components,
        )

    def resize(
        self,
        new_n: int,
        own_buffers: Buffers,
        layout: Callable[[int, int], Optional[Box]],
        *,
        worker: Optional[Callable[..., Any]] = None,
        worker_args: Sequence[Any] = (),
        validate: bool = True,
        retire_leavers: bool = True,
    ) -> "ResizeResult":
        """Remap live data onto a grown or shrunken rank set, without restart.

        Collective over the current communicator.  ``own_buffers`` holds
        this rank's live data for the active mapping's own chunks;
        ``layout(rank, new_n)`` names the box each post-resize rank owns
        (``None`` for a member that keeps no data).  The migration itself
        is an ordinary components-aware DDR exchange — old ranks declare
        their current chunks as *own*, the target layout as *need* — so
        the result on every surviving rank is bitwise-equal to a fresh
        scatter of the global array.

        Growing (``new_n > size``) spawns the extra ranks into the running
        world (:meth:`Communicator.spawn`); each runs
        ``worker(result, *worker_args)`` after adopting its slice, so
        ``worker`` is required and must mirror whatever collectives the
        surviving ranks run next.  Shrinking ranks ``new_n..size-1`` out
        migrates on the current communicator first, then splits them off;
        leavers are retired in the liveness table (``retire_leavers``) and
        get ``ResizeResult(member=False)``.  ``new_n == size`` is a pure
        remap onto ``layout``.

        Afterwards this redistributor is retargeted (old mappings raise
        :class:`~repro.core.mapping.StaleMappingError`) and *unmapped*:
        members call :meth:`setup` to declare the next working layout —
        typically ``setup(own=[result.own], need=...)``.
        """
        if new_n < 1:
            raise ValueError(f"resize target must be >= 1, got {new_n}")
        m = self.comm.size
        rank = self.comm.rank
        own_boxes = list(self.mapping.own_chunks)
        bufs = normalise_own(own_buffers)
        if len(bufs) != len(own_boxes):
            raise ValueError(
                f"resize needs one buffer per active own chunk: got "
                f"{len(bufs)} buffer(s) for {len(own_boxes)} chunk(s)"
            )

        if new_n > m:
            if worker is None:
                raise ValueError(
                    "growing requires a worker for the spawned ranks: "
                    "resize(..., worker=fn) runs fn(result, *worker_args) "
                    "on each joiner after it adopts its slice"
                )
            spec = {
                "ndims": self.descriptor.ndims,
                "dtype": self.descriptor.mpi_type,
                "components": self.descriptor.components,
                "backend": self.backend,
                "transport": self.transport,
                "layout": layout,
                "validate": validate,
                "worker": worker,
                "worker_args": tuple(worker_args),
            }
            union = self.comm.spawn(new_n - m, _resize_join, spec)
            new_box = layout(union.rank, new_n)
            data = self._clone_for(union).migrate(own_boxes, new_box, bufs, validate)
            self.retarget(union)
            return ResizeResult(True, union, self, new_box, data)

        # Shrink — or same-size remap: migrate on the current communicator
        # (leaving ranks declare need=None), then split the leavers off.
        stay = rank < new_n
        new_box = layout(rank, new_n) if stay else None
        data = self.migrate(own_boxes, new_box, bufs, validate)
        if new_n == m:
            self.retarget(self.comm)
            return ResizeResult(True, self.comm, self, new_box, data)
        sub = self.comm.Split(0 if stay else -1, key=rank)
        if not stay:
            my_world = self.comm.world_ranks[rank]
            plan = self.descriptor.plan
            if isinstance(plan, LocalMapping):
                plan.invalidate()
            if retire_leavers:
                self.comm.fabric.mark_retired(my_world)
            return ResizeResult(False, None, None, None, None)
        assert sub is not None
        self.retarget(sub)
        return ResizeResult(True, sub, self, new_box, data)


@dataclass
class ResizeResult:
    """Per-rank outcome of :meth:`Redistributor.resize`.

    ``member`` is False on a rank that left the world (shrink): every other
    field is then ``None``.  On members, ``comm`` is the new communicator,
    ``redistributor`` the retargeted (grow: spawned-side fresh)
    redistributor — unmapped, awaiting ``setup()`` — ``own`` the box
    ``layout(rank, new_n)`` assigned, and ``data`` its migrated contents
    (``None`` when ``own`` is ``None``).
    """

    member: bool
    comm: Optional[Communicator]
    redistributor: Optional[Redistributor]
    own: Optional[Box]
    data: Optional[np.ndarray]


def _resize_join(comm: Communicator, spec: dict) -> Any:
    """Bootstrap body for ranks spawned into a world by ``resize`` (grow).

    Runs the joiner's half of the migration exchange — no own chunks, the
    target layout's box as need — then hands the adopted slice to the
    user worker.  Collective order matches the members' side exactly:
    one ``setup_data_mapping`` plus one exchange on the merged
    communicator, after which all coordination is the worker's.
    """
    red = Redistributor(
        comm,
        spec["ndims"],
        spec["dtype"],
        backend=spec["backend"],
        components=spec["components"],
        transport=spec["transport"],
    )
    new_box = spec["layout"](comm.rank, comm.size)
    data = red.migrate([], new_box, None, spec["validate"])
    result = ResizeResult(True, comm, red, new_box, data)
    return spec["worker"](result, *spec["worker_args"])
