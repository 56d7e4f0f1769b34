"""Crash-surviving wrapper around :class:`repro.core.api.Redistributor`.

``ResilientRedistributor`` runs the same setup/exchange API, but when a
peer rank dies mid-exchange it performs ULFM-style recovery instead of
propagating a hang or an abort:

1. **revoke** the communicator so every survivor blocked in the old
   exchange wakes with a typed error;
2. **agree** (fault-aware, crash-proof: no transport ops) on the union of
   observed dead ranks and the minimum pending epoch across survivors;
3. **shrink** to a dense-ranked survivor communicator;
4. **adopt** the dead ranks' chunks onto deterministic survivors, restore
   their contents from the buddy checkpoint store, and re-run the full
   ``DDR_SetupDataMapping`` over the shrunken communicator (the mapping
   descriptor bakes in ``comm.size``, so a fresh inner
   :class:`Redistributor` is built);
5. **replay** any epochs the slowest survivor rolled back to (self-copies
   in the store supply each rank's historical generation), then retry the
   pending epoch.

A chunk whose owner *and* all buddy holders are dead is unrecoverable: if
any survivor still needs it, recovery raises :class:`DataLossError` naming
the lost boxes; if nobody needs it, the box is dropped from the domain and
the run continues.  A chunk restored from an older epoch than the pending
one (the owner crashed before depositing the current generation) is a
*stale restore*: recovery succeeds but the affected boxes are listed in
``stale_boxes`` so callers can classify the result as degraded rather than
bitwise-correct.

Crash recovery is one instance of a more general operation: *resizing* the
live world.  :meth:`ResilientRedistributor.resize` exposes the voluntary
form — grow onto spawned ranks or shrink onto a prefix, migrating data via
the same components-aware DDR exchange (``Redistributor.resize``) — and
crash recovery is the involuntary form (the new world is the survivor set,
the migration source is the checkpoint store).  Both install the new
communicator and rebuild through ``Redistributor.retarget``, so there is
exactly one mapping-rebuild lifecycle however the world changes shape.
The in-transit pipeline's shrink mode recovers with the same
:func:`recoverable` and :func:`agree_failures`.

Epoch discipline: every successful exchange ends with a barrier on the
current communicator, which bounds cross-rank epoch skew to one and lets
``CheckpointPolicy.retain == 2`` cover any replay.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..core.api import Redistributor, ResizeResult
from ..core.box import Box
from ..mpisim.comm import Communicator
from ..mpisim.errors import DeadlineError, MpiSimError, ProcessFailedError, RevokedError
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import TRACER
from .checkpoint import BuddyStore, CheckpointPolicy, restore, shared_store
from .errors import DataLossError

#: Process-wide recovery counters.
RESILIENCE_STATS = MetricsRegistry()

#: Recoveries one ``gather_need`` call attempts before re-raising.
MAX_RECOVERIES = 2


def recoverable(exc: MpiSimError, comm: Communicator) -> bool:
    """Is ``exc`` a peer's crash that survivors of ``comm`` recover from?
    Revocation and a failed peer are; a deadline only with a member of
    ``comm`` dead.  The victim's own ``RankCrashError``, ``DataLossError``,
    ``ReconfigurationError`` and everything else are not."""
    if isinstance(exc, (RevokedError, ProcessFailedError)):
        return True
    if isinstance(exc, DeadlineError):
        dead = comm.fabric.dead_ranks()
        return any(w in dead for w in comm.world_ranks)
    return False


def agree_failures(comm: Communicator, restart: int) -> Tuple[frozenset, int]:
    """Revoke ``comm``, then agree on ``(dead, restart)``: the union of the
    members any survivor sees gone (crashed or retired) and the least
    ``restart`` any survivor proposes.  Uses only the fabric's crash-proof
    agreement plane (no transport operations), so a second crash cannot
    strand it."""
    comm.revoke()
    fabric = comm.fabric
    observed = frozenset(w for w in comm.world_ranks if fabric.is_gone(w))
    dead, restart = comm.agree(
        (observed, restart), combine=lambda a, b: (a[0] | b[0], min(a[1], b[1]))
    )
    return frozenset(dead), int(restart)


class ResilientRedistributor:
    """Redistributor façade that survives rank crashes mid-exchange.

    Construction arguments mirror :class:`Redistributor`, plus a
    :class:`CheckpointPolicy` and the checkpoint store.  The ``comm`` handle
    is *replaced* on every recovery (``self.comm`` is always the current,
    possibly shrunken, communicator) and ``own_boxes`` grows when this
    rank adopts a dead peer's chunks — callers that want bitwise-correct
    output after recovery should re-query ``own_boxes`` each generation
    and supply data for every box.  Callers that keep passing buffers for
    their original boxes only still work: adopted boxes are auto-filled
    from the newest checkpoint, at the cost of those regions going (and
    staying) stale.
    """

    def __init__(
        self,
        comm: Communicator,
        ndims: int,
        dtype: np.dtype,
        *,
        backend: Optional[str] = None,
        components: int = 1,
        transport: Optional[str] = None,
        policy: Optional[CheckpointPolicy] = None,
        store: Optional[BuddyStore] = None,
    ) -> None:
        self.comm = comm
        self.ndims = ndims
        self.dtype = np.dtype(dtype)
        self.policy = policy or CheckpointPolicy()
        self.store = store if store is not None else shared_store(comm.fabric)
        self._backend = backend
        self._components = components
        self._transport = transport
        self._red: Optional[Redistributor] = None
        self.own_boxes: List[Box] = []
        self.need_box: Optional[Box] = None
        # world rank -> declarations, survivor-consistent across recoveries
        self._owns_by_world: dict[int, List[Box]] = {}
        self._needs_by_world: dict[int, Optional[Box]] = {}
        self._epoch = 0
        self.recoveries = 0
        self.adopted_boxes: List[Box] = []
        self.stale_boxes: List[Box] = []

    # -- setup ---------------------------------------------------------------

    def setup(
        self, own: Sequence[Box], need: Optional[Box], validate: bool = True
    ) -> None:
        """Collective mapping setup (``DDR_SetupDataMapping``).

        A crash *during* initial setup is unrecoverable by construction:
        the dead rank never checkpointed anything and the survivors may
        not even know its declarations, so a typed :class:`DataLossError`
        is raised (after revoking the communicator so no survivor hangs).
        """
        self.own_boxes = list(own)
        self.need_box = need
        try:
            self._collective_setup(validate=validate)
        except MpiSimError as exc:
            if isinstance(exc, (RevokedError, ProcessFailedError)):
                self.comm.revoke()
                raise DataLossError(
                    "a rank died during the initial mapping setup, before "
                    "any checkpoint existed; its chunks cannot be recovered"
                ) from exc
            raise

    def _collective_setup(self, validate: bool) -> None:
        if self._red is None:
            self._red = Redistributor(
                self.comm,
                self.ndims,
                self.dtype,
                backend=self._backend,
                components=self._components,
                transport=self._transport,
            )
        else:
            # The shared reconfiguration primitive: crash recovery and
            # voluntary resize both funnel through Redistributor.retarget,
            # so there is one mapping-rebuild path however the communicator
            # changed shape (shrink after a crash, spawn-grow, or split).
            self._red.retarget(self.comm)
        decl = (
            [(box.offset, box.dims) for box in self.own_boxes],
            (self.need_box.offset, self.need_box.dims) if self.need_box else None,
        )
        gathered = self.comm.allgather(decl)
        self._owns_by_world = {}
        self._needs_by_world = {}
        for rank, (own_decl, need_decl) in enumerate(gathered):
            world = self.comm.world_rank_of(rank)
            self._owns_by_world[world] = [Box(o, d) for o, d in own_decl]
            self._needs_by_world[world] = Box(*need_decl) if need_decl else None
        self._red.setup(self.own_boxes, self.need_box, validate=validate)

    # -- exchange ------------------------------------------------------------

    def gather_need(
        self, own_buffers: Any, fill: Any = 0
    ) -> Optional[np.ndarray]:
        """One exchange epoch; recovers from peer crashes transparently.

        ``own_buffers`` may be a single array (one own box) or a sequence
        aligned with a *prefix* of ``own_boxes``; any trailing adopted
        boxes the caller does not supply are filled from checkpoints.
        """
        if self._red is None:
            raise RuntimeError("setup() must be called before gather_need()")
        bufs = self._normalize_buffers(own_buffers)
        pending = self._epoch + 1
        steps: List[Tuple[str, int]] = [("exchange", pending)]
        attempt = 0
        out: Optional[np.ndarray] = None
        while steps:
            kind, epoch = steps[0]
            try:
                if kind == "setup":
                    self._collective_setup(validate=False)
                else:
                    ebufs = self._epoch_buffers(epoch, pending, bufs)
                    self._deposit(epoch, ebufs)
                    result = self._red.gather_need(ebufs, fill=fill)
                    self.comm.Barrier()
                    if epoch == pending:
                        out = result
                steps.pop(0)
            except MpiSimError as exc:
                attempt += 1
                if attempt > MAX_RECOVERIES or not recoverable(exc, self.comm):
                    raise
                restart = self._recover(pending)
                steps = [("setup", 0)] + [
                    ("exchange", e) for e in range(restart, pending + 1)
                ]
        self._epoch = pending
        return out

    def _normalize_buffers(self, own_buffers: Any) -> List[np.ndarray]:
        if isinstance(own_buffers, np.ndarray):
            bufs = [own_buffers]
        else:
            bufs = list(own_buffers)
        if len(bufs) > len(self.own_boxes):
            raise ValueError(
                f"{len(bufs)} buffers for {len(self.own_boxes)} own boxes"
            )
        return bufs

    # -- voluntary resize ----------------------------------------------------

    @classmethod
    def from_resize(
        cls,
        result: ResizeResult,
        *,
        policy: Optional[CheckpointPolicy] = None,
        store: Optional[Any] = None,
    ) -> "ResilientRedistributor":
        """Wrap a :class:`ResizeResult`'s redistributor in a resilient façade.

        Used on the joining side of a grow (inside the spawn worker) and by
        callers that started from a plain :class:`Redistributor`.  The
        returned instance adopts the already-retargeted inner redistributor
        instead of building a fresh one; like any post-resize redistributor
        it is unmapped until the caller's next collective :meth:`setup`.
        """
        red = result.redistributor
        if red is None or result.comm is None:
            raise ValueError("from_resize() needs a member ResizeResult")
        rr = cls(
            result.comm,
            red.descriptor.ndims,
            red.descriptor.dtype,
            backend=red.backend,
            components=red.descriptor.components,
            transport=red.transport,
            policy=policy,
            store=store,
        )
        rr._red = red
        return rr

    def resize(
        self,
        new_n: int,
        own_buffers: Any,
        layout: Any,
        *,
        worker: Optional[Any] = None,
        worker_args: Tuple[Any, ...] = (),
        validate: bool = True,
    ) -> ResizeResult:
        """Voluntarily reshape the live world to ``new_n`` ranks.

        The symmetric twin of crash recovery: delegates the membership
        change and data migration to :meth:`Redistributor.resize` (spawn +
        DDR exchange for a grow, split + exchange for a shrink), then
        installs the new communicator for the next :meth:`setup` to
        retarget onto, as recovery does.  ``own_buffers`` may cover a
        prefix of ``own_boxes``; adopted boxes the caller does not supply are filled
        from the newest checkpoints, exactly as in :meth:`gather_need`.

        For a grow, ``worker`` runs on each spawned rank as
        ``worker(resilient, result, *worker_args)`` where ``resilient`` is
        a :class:`ResilientRedistributor` already aligned to the members'
        epoch counter (required: replay agreement takes the minimum pending
        epoch across ranks, so a joiner at epoch 0 would roll every
        survivor back to the beginning).

        Returns the member-side :class:`ResizeResult`; non-members (ranks
        dropped by a shrink) get ``result.member == False`` and this façade
        becomes unusable until a fresh :meth:`setup` on a live world.
        After a member resize, call :meth:`setup` collectively to declare
        the new generation's own/need boxes.
        """
        if self._red is None:
            raise RuntimeError("setup() must be called before resize()")
        bufs = self._normalize_buffers(own_buffers)
        if len(bufs) < len(self.own_boxes):
            # Cover adopted (or simply unsupplied) boxes from checkpoints.
            bufs = self._epoch_buffers(self._epoch, self._epoch, bufs)

        epoch = self._epoch
        policy = self.policy
        user_worker = worker

        def _joiner(result: ResizeResult, *wargs: Any) -> Any:
            rr = ResilientRedistributor.from_resize(result, policy=policy)
            rr._epoch = epoch  # align replay agreement with the members
            return user_worker(rr, result, *wargs)

        result = self._red.resize(
            new_n,
            bufs,
            layout,
            worker=_joiner if user_worker is not None else None,
            worker_args=worker_args,
            validate=validate,
        )
        RESILIENCE_STATS.incr("voluntary_resizes")
        self._owns_by_world = {}
        self._needs_by_world = {}
        self.adopted_boxes = []
        self.stale_boxes = []
        self.need_box = None
        if result.member:
            self.comm = result.comm
            self.own_boxes = [result.own] if result.own is not None else []
        else:
            # Dropped by the shrink: release the inner redistributor so any
            # further use fails fast with the setup-required error.
            self._red = None
            self.own_boxes = []
        return result

    # -- checkpointing -------------------------------------------------------

    def _my_world(self) -> int:
        return self.comm.world_rank_of(self.comm.rank)

    def _deposit(self, epoch: int, bufs: Sequence[np.ndarray]) -> None:
        holders = self.policy.holder_world_ranks(
            self.comm.rank, self.comm.world_ranks
        )
        with TRACER.span("resilience.deposit", rank=self._my_world(), epoch=epoch):
            self.store.deposit(
                self._my_world(),
                epoch,
                holders,
                list(zip(self.own_boxes, bufs)),
                retain=self.policy.retain,
            )
        RESILIENCE_STATS.incr("deposits")

    def _epoch_buffers(
        self, epoch: int, pending: int, bufs: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Data for every own box at ``epoch``.

        The pending epoch takes caller buffers where supplied; replayed
        epochs (and adopted boxes the caller doesn't cover) come from the
        checkpoint store.  Boxes restored from an older generation are
        recorded in ``stale_boxes`` when they feed the pending output.
        """
        dead = self.comm.fabric.dead_ranks()
        stale: List[Box] = []
        out: List[np.ndarray] = []
        for i, box in enumerate(self.own_boxes):
            if epoch == pending and i < len(bufs):
                out.append(bufs[i])
                continue
            arr, exact = restore(self.store, box, epoch, dead)
            if not exact:
                stale.append(box)
            out.append(arr)
        if epoch == pending:
            self.stale_boxes = stale
            if stale:
                RESILIENCE_STATS.incr("stale_restores", len(stale))
        else:
            RESILIENCE_STATS.incr("replays")
        return out

    # -- recovery ------------------------------------------------------------

    def _recover(self, pending: int) -> int:
        """Revoke/agree/shrink/adopt; returns the agreed restart epoch.

        A second crash cannot strand the agreement; at worst the rebuilt
        setup or a replayed exchange fails and the outer loop runs
        recovery again on the shrunken communicator.
        """
        self.recoveries += 1
        RESILIENCE_STATS.incr("recoveries")
        with TRACER.span("resilience.recover", rank=self._my_world()):
            dead, restart = agree_failures(self.comm, pending)
            old_members = self.comm.world_ranks
            self.comm = self.comm.shrink(dead=dead)
            self._adopt(dead, old_members)
        return restart

    def _adopt(self, dead: frozenset, old_members: Tuple[int, ...]) -> None:
        """Reassign dead ranks' boxes to survivors, all ranks in lockstep.

        Every survivor runs the same deterministic computation over the
        agreed dead set, so the post-recovery declarations are consistent
        without further communication (``CheckpointPolicy.adopter``);
        chunks with no readable checkpoint are dropped if nobody needs
        them and raise :class:`DataLossError` otherwise.
        """
        all_dead = frozenset(self.comm.fabric.dead_ranks()) | dead
        my_world = self._my_world()
        unrecoverable: List[Box] = []
        for owner in sorted(dead):
            boxes = self._owns_by_world.pop(owner, [])
            self._needs_by_world.pop(owner, None)
            if not boxes:
                continue
            adopter = self.policy.adopter(old_members.index(owner), old_members, dead)
            adopted: List[Box] = []
            for box in boxes:
                if not self.store.has_box(box, all_dead):
                    if self._box_needed(box, dead):
                        unrecoverable.append(box)
                    else:
                        RESILIENCE_STATS.incr("dropped_boxes")
                    continue
                adopted.append(box)
            if not adopted:
                continue
            self._owns_by_world.setdefault(adopter, []).extend(adopted)
            if adopter == my_world:
                self.own_boxes.extend(adopted)
                self.adopted_boxes.extend(adopted)
                RESILIENCE_STATS.incr("adopted_boxes", len(adopted))
        if unrecoverable:
            raise DataLossError(
                "unrecoverable chunks (owner and all buddy holders dead) "
                "still needed by survivors: "
                + ", ".join(str(b) for b in unrecoverable),
                lost_boxes=unrecoverable,
            )

    def _box_needed(self, box: Box, dead: frozenset) -> bool:
        for world, need in self._needs_by_world.items():
            if world in dead or need is None:
                continue
            if box.overlaps(need):
                return True
        return False

    # -- introspection -------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Completed exchange epochs."""
        return self._epoch

    @property
    def degraded(self) -> bool:
        """Did the most recent exchange include stale-restored regions?"""
        return bool(self.stale_boxes)

    @property
    def inner(self) -> Optional[Redistributor]:
        """The current wrapped :class:`Redistributor` (rebuilt on shrink)."""
        return self._red

    def stats(self) -> dict:
        return {
            "recoveries": self.recoveries,
            "adopted_boxes": len(self.adopted_boxes),
            "stale_boxes": len(self.stale_boxes),
            "epoch": self._epoch,
        }
