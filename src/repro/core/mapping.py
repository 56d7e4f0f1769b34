"""``DDR_SetupDataMapping`` internals: the collective mapping step.

Each rank declares only its *local* picture — the chunks it owns and the
single chunk it needs (paper §III-B, Table I).  The mapping step is a
collective: ranks allgather their declarations as int64 arrays, every rank
validates all of them (so every rank reaches the same verdict), and then
each keeps only its own overlap rows (:func:`repro.core.schedule.plan_ranks`
with ``ranks=[rank]``) in its :class:`LocalMapping` — a first-class,
ready-to-execute handle (rows + datatypes + buffer cache + staging pool).

Mapping lifecycle: a :class:`~repro.core.api.Redistributor` may hold
several live mappings at once (different layouts over the same
communicator) and may cheaply re-``setup()`` on a new geometry (malleable
reconfiguration).  Re-attaching a mapping to a descriptor *invalidates*
the mapping it replaces: its caches are dropped and further exchanges
through it raise :class:`StaleMappingError` instead of silently moving
data with a superseded layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from ..mpisim.comm import Communicator
from ..mpisim.datatypes import NamedType
from ..utils.arrays import StagingPool
from .box import Box
from .descriptor import DataDescriptor
from .packing import BufferCache
from .schedule import Declarations, ExchangeSchedule, RankPlan, declare, plan_ranks
from .validate import check_declarations, domain_of


class StaleMappingError(RuntimeError):
    """An exchange was attempted through a mapping that has been superseded."""


@dataclass
class LocalMapping:
    """One rank's ready-to-execute plan — a first-class handle.

    Holds everything the executor needs (this rank's rows,
    :class:`~repro.core.schedule.RankPlan`, and the element type) plus the
    per-mapping caches: executed rounds and their datatypes,
    :class:`~repro.core.packing.BufferCache` (skips buffer revalidation on
    repeat calls with the same arrays) and
    :class:`~repro.utils.arrays.StagingPool` (reused output arrays for
    ``gather_need(reuse_out=True)``).  Keying the caches per mapping is
    what lets several mappings coexist on one ``Redistributor`` without
    thrashing each other.
    """

    rank: int
    nprocs: int
    nrounds: int
    plan: RankPlan
    domain: Optional[Box]
    mpi_type: NamedType
    dtype: np.dtype
    components: int = 1
    buffer_cache: BufferCache = field(default_factory=BufferCache)
    pool: StagingPool = field(default_factory=StagingPool)
    #: Executed round lists by what regrouping depends on; engine-filled.
    executed: dict = field(default_factory=dict, init=False, repr=False)
    #: Datatypes by geometry, shared by every executed variant; engine-filled.
    types: dict = field(default_factory=dict, init=False, repr=False)
    _stale: bool = field(default=False, init=False, repr=False)
    #: Monotonic exchange counter; advances in lockstep on every rank
    #: (``execute`` is collective), giving each exchange a unique tag epoch
    #: so a message lost from one exchange can never satisfy a receive of a
    #: later one (see :func:`repro.core.engine.execute`).
    _tag_epoch: int = field(default=0, init=False, repr=False)

    def next_tag_epoch(self) -> int:
        epoch = self._tag_epoch
        self._tag_epoch = epoch + 1
        return epoch

    @property
    def schedule(self) -> ExchangeSchedule:
        """The planned rounds in the object form (geometry only), built on demand."""
        return self.plan.schedule()

    @cached_property
    def own_chunks(self) -> list[Box]:
        return self.plan.own_boxes()

    @cached_property
    def need(self) -> Optional[Box]:
        return self.plan.need_box()

    @property
    def stale(self) -> bool:
        return self._stale

    def invalidate(self) -> None:
        """Mark superseded: drop the caches, make further use raise."""
        self._stale = True
        self.buffer_cache.clear()
        self.pool.clear()
        self.executed.clear()
        self.types.clear()

    def check_usable(self, comm: Communicator) -> None:
        """Executor preamble: reject stale handles and mismatched worlds."""
        if self._stale:
            raise StaleMappingError(
                f"mapping (rank {self.rank}/{self.nprocs}) was invalidated by a "
                "later setup(); re-run setup() or keep an independent mapping "
                "via Redistributor.new_mapping()"
            )
        if comm.size != self.nprocs or comm.rank != self.rank:
            raise ValueError(
                f"communicator (rank {comm.rank}/{comm.size}) does not match the "
                f"mapping (rank {self.rank}/{self.nprocs})"
            )


def local_mapping(
    plan: RankPlan, domain: Optional[Box], descriptor: DataDescriptor
) -> LocalMapping:
    """``plan`` (one rank's) with the descriptor's element type."""
    return LocalMapping(
        plan.rank, plan.nprocs, plan.nrounds, plan, domain, descriptor.mpi_type,
        descriptor.dtype, descriptor.components, pool=StagingPool(rank=plan.rank),
    )


def attach_mapping(descriptor: DataDescriptor, mapping: LocalMapping) -> None:
    """Install ``mapping`` as the descriptor's active plan slot.

    The C-style API addresses exchanges through the descriptor, so the slot
    holds exactly one live mapping: whatever it previously held is
    invalidated (stale use raises, caches are released).
    """
    previous = descriptor.plan
    if isinstance(previous, LocalMapping) and previous is not mapping:
        previous.invalidate()
    descriptor.plan = mapping


def setup_data_mapping(
    comm: Communicator,
    descriptor: DataDescriptor,
    own_chunks: Sequence[Box],
    need: Optional[Box],
    validate: bool = True,
    attach: bool = True,
) -> LocalMapping:
    """Collective: allgather declarations, validate them, keep this rank's
    overlap rows and build its mapping.

    Must be called by every rank of ``comm`` with its own declarations.
    With ``attach=True`` (the default, mirroring the paper's
    opaque-descriptor lifecycle) the mapping is stored on
    ``descriptor.plan`` and any previously attached mapping is invalidated;
    ``attach=False`` returns an independent handle and leaves the
    descriptor untouched — the building block for concurrent mappings.
    """
    if comm.size != descriptor.nprocs:
        raise ValueError(
            f"descriptor was created for {descriptor.nprocs} processes but the "
            f"communicator has {comm.size}"
        )
    for box in own_chunks:
        if box.ndim != descriptor.ndims:
            raise ValueError(
                f"chunk {box} has {box.ndim} dims, descriptor declares {descriptor.ndims}"
            )
    if need is not None and need.ndim != descriptor.ndims:
        raise ValueError(
            f"need {need} has {need.ndim} dims, descriptor declares {descriptor.ndims}"
        )

    gathered = comm.allgather(declare(own_chunks, need, descriptor.ndims))
    decl = Declarations(gathered, descriptor.ndims)
    domain = check_declarations(decl) if validate else domain_of(decl)
    (plan,) = plan_ranks(decl, descriptor.element_size, ranks=[comm.rank])
    local = local_mapping(plan, domain, descriptor)
    if attach:
        attach_mapping(descriptor, local)
    return local
