"""The MPI surface of the in-process runtime: :class:`Communicator`.

Why this exists: the paper's DDR library drives ``MPI_Alltoallw`` with
subarray datatypes across a real cluster.  This environment has no MPI, so
we execute the *identical algorithm* on a thread-backed SPMD runtime with
matched-queue point-to-point semantics and only the collectives DDR and the
two use cases call: ``Alltoallw`` over derived datatypes, ``Barrier``, the
object ``bcast`` / ``gather`` / ``allgather``, and ``Split``.  The usual MPI
correctness discipline — no buffer reuse races, ordered matching per
(source, tag) — is preserved and testable.

The runtime is three modules.  :mod:`~repro.mpisim.fabric` owns the shared
mailboxes, liveness and world growth and moves opaque messages.
:mod:`~repro.mpisim.transport` owns how a typed payload crosses between
ranks (``packed`` / ``zerocopy`` / ``shm``) and who releases its resources:
every typed send here stages through :meth:`Communicator._post_lane` and
every typed receive drains through ``deliver``, so budget release, purge
and fault-drop each live in one place.  This module is the endpoint:
argument validation at the boundary, point-to-point, the collectives over
dense internal lanes, ULFM-style ``revoke`` / ``agree`` / ``shrink``, and
``spawn``.

The send/recv/collective paths consult the process-wide fault layer
(:data:`repro.faults.injector.FAULTS`) behind a single attribute check, so
a seeded :class:`~repro.faults.FaultPlan` can delay, drop, corrupt, or
transiently fail traffic deterministically — and the recovery machinery
(checksum verify-and-reretrieve, retry with exponential backoff,
per-operation deadlines) turns those faults into healed operations or
prompt typed errors.  With no plan installed the cost is one attribute
load per operation.

Timing of the paper's *experiments* is handled separately by
``repro.netmodel``; this module is about moving real bytes correctly.
"""

from __future__ import annotations

import copy as _copy
import time
from typing import Any, Callable, Hashable, Optional, Sequence

import numpy as np

from ..faults.injector import FAULTS
from ..obs.tracer import TRACER
from .datatypes import Datatype
from .errors import CommunicatorError, DeadlineError, TruncationError
from .fabric import Fabric, _Message
from .request import CompletedRequest, DeferredRequest, Request, Status
from .transport import copy_local, deliver, discard, materialize, resolve, stage
from .transport import TRANSPORT_PACKED, check_sends

ANY_SOURCE = -1
ANY_TAG = -1


class Communicator:
    """One rank's endpoint of an MPI communicator.

    The uppercase methods move NumPy buffers (optionally through a derived
    :class:`~repro.mpisim.datatypes.Datatype`); the lowercase methods move
    arbitrary Python objects, mirroring mpi4py's convention.
    """

    def __init__(
        self,
        fabric: Fabric,
        comm_id: Hashable,
        world_ranks: Sequence[int],
        rank: int,
        lineage: Optional[Sequence[Hashable]] = None,
    ) -> None:
        self.fabric = fabric
        self.comm_id = comm_id
        self._world_ranks = tuple(world_ranks)
        self._rank = rank
        self._coll_seq = 0
        #: This communicator's id plus every ancestor it was derived from
        #: (Split / spawn chain).  Revoking an ancestor revokes every descendant;
        #: ``shrink`` starts a fresh lineage so survivors can rebuild on a
        #: clean communicator even though the parent is revoked.
        self._lineage: tuple[Hashable, ...] = (
            tuple(lineage) + (comm_id,) if lineage is not None else (comm_id,)
        )
        # agree/shrink keep their own sequence counters: after a crash the
        # survivors' collective counters may have diverged, but recovery
        # protocols call agree/shrink in lockstep.
        self._agree_seq = 0
        self._shrink_seq = 0

    def resolve_transport(self, transport: Optional[str] = None) -> str:
        """The wire a call runs: ``transport``, else the process default
        (``DDR_TRANSPORT``, else ``zerocopy``).

        On a fabric that cannot share live buffer references (the process
        executor), ``zerocopy`` degrades to ``shm`` — the schedule IR and
        every call site stay transport-agnostic; only the lane mechanics
        change underneath them.
        """
        return resolve(self.fabric.supports_zerocopy, transport)

    # -- introspection ------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return len(self._world_ranks)

    def world_rank_of(self, rank: int) -> int:
        return self._world_ranks[rank]

    @property
    def world_ranks(self) -> tuple[int, ...]:
        """World ranks of every member, in communicator rank order."""
        return self._world_ranks

    def _check_rank(self, rank: int, what: str) -> None:
        if not 0 <= rank < len(self._world_ranks):
            raise CommunicatorError(f"{what} {rank} out of range for size {self.size}")

    def _check_send(self, dest: int, tag: int) -> None:
        """Boundary validation of every send (runs once per posted lane)."""
        if not 0 <= dest < len(self._world_ranks):
            self._check_rank(dest, "dest")
        if tag < 0:
            raise CommunicatorError(f"user tags must be >= 0, got {tag}")

    # -- ULFM-style fault tolerance -----------------------------------------

    @property
    def revoked(self) -> bool:
        return self.fabric.hazard and self.fabric.is_revoked(self._lineage)


    def revoke(self) -> None:
        """Revoke this communicator and every one derived from it.

        All pending and future operations on revoked communicators raise
        :class:`RevokedError`; ``agree`` and ``shrink`` still complete, so
        survivors use ``revoke`` to kick every peer out of whatever
        collective it is blocked in before rebuilding.  Idempotent.
        """
        self.fabric.revoke(self.comm_id)

    def agree(
        self,
        value: Any = True,
        combine: Optional[Callable[[Any, Any], Any]] = None,
    ) -> Any:
        """Fault-tolerant agreement (ULFM ``MPIX_Comm_agree``).

        Completes even on a revoked communicator and even when members
        have crashed: completion requires a contribution from every member
        still live in the executor's liveness table, re-evaluated as
        deaths are recorded.  The result folds *all* contributions present
        (including from ranks that died after contributing) in world-rank
        order with ``combine`` (default: logical AND via ``a and b``), so
        every completing member computes the same value.

        Survivors must call ``agree`` in the same order (its sequence
        counter is independent of the regular collectives, whose counters
        may have diverged at the moment of a crash).
        """
        fab = self.fabric
        self._agree_seq += 1
        key = ("agree", self.comm_id, self._agree_seq)
        my_world = self._world_ranks[self._rank]
        fab.agree_contribute(key, my_world, value)
        if combine is None:
            combine = lambda a, b: a and b  # noqa: E731
        deadline = time.monotonic() + fab.deadlock_timeout
        cond = fab._conds[my_world]
        while True:
            fab.check_abort()
            values = fab.agree_poll(key, self._world_ranks)
            if values is not None:
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DeadlineError(
                    f"agree on comm {self.comm_id!r} blocked > "
                    f"{fab.deadlock_timeout}s; a member neither contributed "
                    f"nor was declared dead"
                )
            with cond:
                cond.wait(timeout=min(0.25, remaining))
        result: Any = None
        first = True
        for world in sorted(values):
            result = values[world] if first else combine(result, values[world])
            first = False
        fab.agree_finish(key, my_world, self._world_ranks)
        return result

    def shrink(self, dead: Optional[frozenset[int]] = None) -> "Communicator":
        """Build a dense-ranked survivor communicator (ULFM ``MPIX_Comm_shrink``).

        The failed set comes from the executor's liveness table, not
        timeouts: every survivor contributes its view of the dead/retired
        world ranks and the agreed union is excluded.  Pass ``dead`` (an
        agreed set of world ranks) to skip the internal agreement when the
        caller already ran one.  Survivors keep their relative order and
        are renumbered densely from 0.  The new communicator starts a
        fresh lineage, so it works even though its parent is revoked.
        """
        if dead is None:
            observed = frozenset(
                w for w in self._world_ranks if self.fabric.is_gone(w)
            )
            dead = self.agree(observed, combine=lambda a, b: a | b)
        survivors = tuple(w for w in self._world_ranks if w not in dead)
        my_world = self._world_ranks[self._rank]
        if my_world not in survivors:
            raise CommunicatorError(
                f"rank (world {my_world}) is in the agreed failed set and "
                f"cannot join the shrunken communicator"
            )
        self._shrink_seq += 1
        new_id = ("shrink", self.comm_id, self._shrink_seq)
        return Communicator(self.fabric, new_id, survivors, survivors.index(my_world))

    def spawn(
        self, count: int, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> "Communicator":
        """Grow the world: launch ``count`` new ranks and merge them in.

        The inverse of :meth:`shrink`, and the one-call analogue of
        ``MPI_Comm_spawn`` + ``MPI_Intercomm_merge``: every current member
        calls ``spawn`` collectively with the same ``count``; rank 0 claims
        fresh world slots and launches them running
        ``fn(newcomm, *args, **kwargs)``.  Returns the merged communicator —
        existing members keep their rank order, spawned ranks are appended
        densely after them.  The merged communicator *shares* this one's
        lineage (unlike ``shrink``, which starts a fresh one): revoking the
        parent must still kick spawned ranks out of their collectives, so
        crash recovery keeps working across a grow.

        Under the process executor the new ranks are forked from the spawn
        root and occupy reserve queue slots provisioned at launch
        (``run_spmd(..., spawn_slots=k)``); the thread executor grows
        without pre-provisioning.  A spawned rank
        that returns from ``fn`` retires in the liveness table; its return
        value is discarded (spawned ranks have no slot in the driver's
        result list), so workers that produce data should communicate it.
        """
        if count < 1:
            raise CommunicatorError(f"spawn count must be >= 1, got {count}")
        seq = self._next_seq()
        new_worlds = self.bcast(
            self.fabric.claim_world_slots(count) if self._rank == 0 else None,
            root=0,
        )
        self.fabric.note_world_slots(new_worlds)
        new_id = ("spawn", self.comm_id, seq)
        merged = self._world_ranks + tuple(new_worlds)
        if self._rank == 0:
            base = len(self._world_ranks)
            for offset, world in enumerate(new_worlds):
                self.fabric.launch_rank(
                    world, new_id, merged, base + offset, self._lineage, fn, args, kwargs
                )
        return Communicator(self.fabric, new_id, merged, self._rank, lineage=self._lineage)

    # -- tracing hooks -------------------------------------------------------
    #
    # Every hook is guarded by a single ``TRACER.enabled`` check before any
    # span attribute is computed (the TransferCounters discipline), so the
    # disabled cost on the hot path is one attribute load per operation.

    def _span(self, name: str, **attrs):
        return TRACER.span(name, rank=self._world_ranks[self._rank], **attrs)

    @staticmethod
    def _nbytes_of(buf: np.ndarray, datatype: Optional[Datatype]) -> int:
        return datatype.size_bytes() if datatype is not None else np.asarray(buf).nbytes

    # -- point to point -------------------------------------------------------

    def _post_lane(
        self,
        buf: np.ndarray,
        dest: int,
        tag: int,
        internal: bool,
        datatype: Optional[Datatype],
        mode: str,
        what: str,
        rendezvous: bool,
        checked: bool = False,
    ) -> Any:
        """The one typed send: validate, stage through the transport, post.

        Every uppercase send entry point (``Send``, ``Isend``, each
        ``Alltoallw`` lane) lands here.  Returns the pending rendezvous
        lane the caller must :meth:`_await_lanes` before its buffer is its
        own again, or ``None`` when the payload was staged eagerly.
        ``checked``: the caller checked a struct's buffers already.
        """
        self._check_send(dest, tag)
        world = self._world_ranks[self._rank]
        payload, charged, pending = stage(
            self.fabric, world, self._world_ranks[dest],
            buf, datatype, mode, what, rendezvous, checked,
        )
        message = _Message(self._rank, tag, internal, payload)
        if charged:
            message.budget_rank = world
            message.budget_bytes = charged
        try:
            self._post(dest, message)
        except BaseException:
            # Refused at post time (abort, revoked, dead peer, injected
            # crash): the staged payload will never reach a drain site.
            discard(message)
            raise
        return pending

    def Send(
        self,
        buf: np.ndarray,
        dest: int,
        tag: int = 0,
        datatype: Optional[Datatype] = None,
        transport: Optional[str] = None,
    ) -> None:
        """Blocking send with eager buffered semantics on every transport:
        the payload is copied out before the call returns."""
        if TRACER.enabled:
            with self._span(
                "mpi.Send", peer=dest, tag=tag, nbytes=self._nbytes_of(buf, datatype)
            ):
                return self._send(buf, dest, tag, datatype, transport)
        return self._send(buf, dest, tag, datatype, transport)

    def _send(
        self,
        buf: np.ndarray,
        dest: int,
        tag: int,
        datatype: Optional[Datatype],
        transport: Optional[str],
    ) -> None:
        self._post_lane(
            buf, dest, tag, False, datatype, self.resolve_transport(transport),
            "packed payload", rendezvous=False,
        )

    def Isend(
        self,
        buf: np.ndarray,
        dest: int,
        tag: int = 0,
        datatype: Optional[Datatype] = None,
        rendezvous: bool = False,
        transport: Optional[str] = None,
        *,
        _checked: bool = False,
    ) -> Request:
        """Nonblocking send.

        Default is eager buffered semantics: the payload is copied out
        immediately, so the send completes at post time and the buffer may
        be reused right away.  With ``rendezvous=True`` on the zero-copy
        transport the receiver copies directly from ``buf``; the
        buffer must stay untouched until the returned request completes —
        standard MPI nonblocking discipline, now actually load-bearing.
        ``transport`` picks the wire as ``Alltoallw``'s does.  (``_checked``,
        internal: the caller checked a struct's buffers already, as a ``p2p``
        round does once for all its lanes with ``transport.check_sends``.)
        """
        if TRACER.enabled:
            with self._span(
                "mpi.Isend",
                peer=dest,
                tag=tag,
                rendezvous=rendezvous,
                nbytes=self._nbytes_of(buf, datatype),
            ):
                return self._isend(buf, dest, tag, datatype, rendezvous, transport, _checked)
        return self._isend(buf, dest, tag, datatype, rendezvous, transport, _checked)

    def _isend(
        self,
        buf: np.ndarray,
        dest: int,
        tag: int,
        datatype: Optional[Datatype],
        rendezvous: bool,
        transport: Optional[str],
        checked: bool,
    ) -> Request:
        lane = self._post_lane(
            buf, dest, tag, False, datatype, self.resolve_transport(transport),
            "packed payload", rendezvous, checked,
        )
        status = Status(source=self._rank, tag=tag)
        if lane is None:
            return CompletedRequest(status)

        def wait_fn() -> Status:
            self._await_lanes((lane,))
            return status

        return DeferredRequest(lane.completed, wait_fn)

    def Recv(
        self,
        buf: np.ndarray,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        datatype: Optional[Datatype] = None,
        status: Optional[Status] = None,
    ) -> Status:
        if TRACER.enabled:
            with self._span("mpi.Recv", peer=source, tag=tag) as span:
                result = self._recv(buf, source, tag, datatype, status)
                span.set(nbytes=result.count_bytes, source=result.source)
                return result
        return self._recv(buf, source, tag, datatype, status)

    def _recv(
        self,
        buf: np.ndarray,
        source: int,
        tag: int,
        datatype: Optional[Datatype],
        status: Optional[Status],
    ) -> Status:
        message = self._consume(self._match(source, tag, internal=False), source)
        nbytes = deliver(buf, datatype, message)
        result = status or Status()
        result.source, result.tag, result.count_bytes = message.source, message.tag, nbytes
        return result

    def Irecv(
        self,
        buf: np.ndarray,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        datatype: Optional[Datatype] = None,
    ) -> Request:
        stash: dict[str, _Message] = {}
        match = self._match(source, tag, internal=False)

        def test_fn() -> bool:
            if "msg" in stash:
                return True
            found = self.fabric.try_consume(
                self.comm_id, self._world_ranks[self._rank], match
            )
            if found is None:
                return False
            if FAULTS.active:
                FAULTS.on_deliver(found)
            stash["msg"] = found
            return True

        def wait_fn() -> Status:
            message = stash.pop("msg", None)
            if message is None:
                message = self._consume(match, source)
            nbytes = deliver(buf, datatype, message)
            return Status(source=message.source, tag=message.tag, count_bytes=nbytes)

        return DeferredRequest(test_fn, wait_fn)

    def Iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        probe = {"hit": False}
        match = self._match(source, tag, internal=False)

        def peek(message: _Message) -> bool:
            if match(message):
                probe["hit"] = True
            return False  # never consume

        self.fabric.try_consume(self.comm_id, self._world_ranks[self._rank], peek)
        return probe["hit"]

    def purge(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> int:
        """Discard every queued message matching ``(source, tag)``.

        The cleanup path for receives that were posted and then abandoned
        (a timed-out frame under a drop policy): the straggler lands in the
        mailbox under its unique tag and would otherwise sit there forever.
        Transport resources are released — a rendezvous sender is unblocked,
        an shm segment is returned to its pool — and the number of purged
        messages is returned.  Only user-level (non-internal) messages are
        eligible; collective traffic is never purged.
        """
        match = self._match(source, tag, internal=False)
        purged = 0
        while True:
            found = self.fabric.try_consume(
                self.comm_id, self._world_ranks[self._rank], match
            )
            if found is None:
                return purged
            discard(found)
            purged += 1

    # lowercase (object) p2p ---------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_send(dest, tag)
        self._post(dest, _Message(self._rank, tag, False, _safe_copy(obj)))

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Receive an object; an uppercase (typed) send arrives as a dense
        private copy, releasing its sender."""
        message = self._consume(self._match(source, tag, internal=False), source)
        return materialize(message)

    # -- collectives ------------------------------------------------------------

    def Barrier(self) -> None:
        if TRACER.enabled:
            with self._span("mpi.Barrier"):
                return self._barrier()
        return self._barrier()

    def _barrier(self) -> None:
        seq = self._next_seq()
        token = np.zeros(1, dtype=np.int8)
        if self._rank == 0:
            sink = np.zeros(1, dtype=np.int8)
            for source in range(1, self.size):
                self._coll_recv(sink, source, seq)
            for dest in range(1, self.size):
                self._coll_send(token, dest, seq)
        elif self.size > 1:
            self._coll_send(token, 0, seq)
            self._coll_recv(token, 0, seq)

    def bcast(self, obj: Any = None, root: int = 0) -> Any:
        self._check_rank(root, "root")
        seq = self._next_seq()
        if self._rank == root:
            for dest in range(self.size):
                if dest != root:
                    self._coll_post(_safe_copy(obj), dest, seq)
            return obj
        return self._coll_take(root, seq)

    def gather(self, obj: Any, root: int = 0) -> Optional[list[Any]]:
        self._check_rank(root, "root")
        seq = self._next_seq()
        if self._rank == root:
            out: list[Any] = [None] * self.size
            out[root] = _safe_copy(obj)
            for source in range(self.size):
                if source != root:
                    out[source] = self._coll_take(source, seq)
            return out
        self._coll_post(_safe_copy(obj), root, seq)
        return None

    def allgather(self, obj: Any) -> list[Any]:
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def Alltoallw(
        self,
        sendbuf: Optional[np.ndarray],
        sendtypes: Sequence[Optional[Datatype]],
        recvbuf: Optional[np.ndarray],
        recvtypes: Sequence[Optional[Datatype]],
        transport: Optional[str] = None,
    ) -> None:
        """General all-to-all with a per-peer datatype (DDR's workhorse).

        ``sendtypes[d]`` selects, out of ``sendbuf``, the elements destined
        for rank ``d``; ``None`` (or a zero-size type) means nothing moves on
        that lane.  Symmetrically for ``recvtypes``.  Under ``StructType``
        lanes a buffer is the sequence of buffers those types select from.

        On the zero-copy transport each lane is one direct copy from the
        sender's buffer view into the receiver's; the sender stays in the
        collective until every one of its lanes has been drained, which
        guarantees its buffer is stable for the whole exchange.  Pass
        ``transport="packed"`` to force the staged baseline for this call.
        """
        if TRACER.enabled:
            nbytes = 0
            if sendbuf is not None:
                nbytes = sum(t.size_bytes() for t in sendtypes if t is not None)
            lanes = sum(
                1 for t in sendtypes if t is not None and t.size_elements() > 0
            )
            with self._span(
                "mpi.Alltoallw",
                nbytes=nbytes,
                lanes=lanes,
                transport=self.resolve_transport(transport),
            ):
                return self._alltoallw(sendbuf, sendtypes, recvbuf, recvtypes, transport)
        return self._alltoallw(sendbuf, sendtypes, recvbuf, recvtypes, transport)

    def _alltoallw(
        self,
        sendbuf: Optional[np.ndarray],
        sendtypes: Sequence[Optional[Datatype]],
        recvbuf: Optional[np.ndarray],
        recvtypes: Sequence[Optional[Datatype]],
        transport: Optional[str],
    ) -> None:
        if len(sendtypes) != self.size or len(recvtypes) != self.size:
            raise CommunicatorError("Alltoallw requires one datatype slot per rank")
        for buf, types, side in ((sendbuf, sendtypes, "send"), (recvbuf, recvtypes, "recv")):
            if buf is None and any(t is not None and t.size_elements() > 0 for t in types):
                raise CommunicatorError(f"Alltoallw: {side}types select data but {side}buf is None")
        mode = self.resolve_transport(transport)
        tag = self._next_seq()

        stype, rtype = sendtypes[self._rank], recvtypes[self._rank]
        own = stype.size_elements() if stype is not None else 0
        if own != (rtype.size_elements() if rtype is not None else 0):
            raise CommunicatorError("self send/recv types disagree in Alltoallw")

        # A struct's buffers are checked once for every lane, before the first
        # posts; packed lanes pack, which checks as it goes.
        checked = mode != TRANSPORT_PACKED
        if checked:
            check_sends(sendbuf, sendtypes)
        lanes = []
        for dest in range(self.size):
            if dest == self._rank:
                continue
            datatype = sendtypes[dest]
            if datatype is None or datatype.size_elements() == 0:
                continue
            lane = self._post_lane(
                sendbuf, dest, tag, True, datatype, mode, "Alltoallw lane", True, checked
            )
            if lane is not None:
                lanes.append(lane)

        # Lanes are copied as they arrive; the own lane (no peer waits for it)
        # last.  A receiver-local error stops the copying, not the matching:
        # every other lane is still matched and discarded, so no sender is
        # left waiting.
        failed = None  # the first error a lane's copy raised
        copying = self._rank  # whose lane that was, for the error message
        try:
            for source in range(self.size):
                datatype = recvtypes[source]
                if source == self._rank or datatype is None or not datatype.size_elements():
                    continue
                message = self._consume(self._match(source, tag, internal=True), source)
                if failed is not None:
                    discard(message)
                    continue
                try:
                    deliver(recvbuf, datatype, message)
                except Exception as exc:
                    copying, failed = source, exc
            if failed is not None:
                raise failed
            if own:
                copy_local(sendbuf, stype, recvbuf, rtype, mode, checked)
        except TruncationError as exc:
            # The sender is already released; the error is ours.
            raise TruncationError(f"Alltoallw lane {copying}->{self._rank}: {exc}") from None

        if lanes:
            self._await_lanes(lanes)

    # -- communicator management ---------------------------------------------

    def Split(self, color: int, key: int = 0) -> Optional["Communicator"]:
        """Partition by ``color``; rank order within a part follows ``key``.

        Returns ``None`` for ``color < 0`` (``MPI_UNDEFINED``).
        """
        seq = self._next_seq()
        triples = self.allgather((int(color), int(key), self._rank))
        if color < 0:
            return None
        members = sorted(
            (k, r) for c, k, r in triples if c == color
        )
        world_ranks = tuple(self._world_ranks[r] for _, r in members)
        my_index = next(i for i, (_, r) in enumerate(members) if r == self._rank)
        new_id = ("split", self.comm_id, seq, int(color))
        return Communicator(
            self.fabric, new_id, world_ranks, my_index, lineage=self._lineage
        )

    # -- internals ---------------------------------------------------------------

    def _next_seq(self) -> int:
        self._coll_seq += 1
        return self._coll_seq

    def _post(self, dest: int, message: _Message) -> None:
        self.fabric.check_abort()
        if self.fabric.hazard:
            self.fabric.check_hazard(
                self._lineage, self._world_ranks[dest], self._world_ranks[self._rank]
            )
        if FAULTS.active and not FAULTS.on_send(self._world_ranks[self._rank], message):
            # Dropped by the fault plan: the loss is the receiver's problem
            # (per-op deadline), never a sender-side hang or a leaked charge.
            discard(message)
            return
        self.fabric.post(self.comm_id, self._world_ranks[dest], message)

    def _await_lanes(self, lanes: Sequence[Any]) -> None:
        """Block until every pending lane :meth:`_post_lane` returned has
        been drained, polling so a peer failure (fabric abort) or a deadlock
        still surfaces instead of hanging forever."""
        if TRACER.enabled:
            with self._span("mpi.wait", lanes=len(lanes)):
                return self._await_lanes_impl(lanes)
        return self._await_lanes_impl(lanes)

    def _await_lanes_impl(self, lanes: Sequence[Any]) -> None:
        deadline = time.monotonic() + self.fabric.deadlock_timeout
        for lane in lanes:
            while not lane.wait(0.05):
                self.fabric.check_abort()
                if self.fabric.hazard:
                    # A dead receiver will never drain this lane; a revoked
                    # communicator means nobody should wait on it at all.
                    self.fabric.check_hazard(
                        self._lineage, lane.dest_world, self._world_ranks[self._rank]
                    )
                if time.monotonic() > deadline:
                    raise DeadlineError(
                        f"rank {self._rank} blocked > {self.fabric.deadlock_timeout}s "
                        f"waiting for a zero-copy lane to drain; likely deadlock"
                    )

    def _consume(
        self, match: Callable[[_Message], bool], source: int = ANY_SOURCE
    ) -> _Message:
        world = self._world_ranks[self._rank]
        deadline_s = FAULTS.on_recv(world) if FAULTS.active else None
        source_world = self._world_ranks[source] if source != ANY_SOURCE else None
        message = self.fabric.consume(
            self.comm_id, world, match,
            deadline_s=deadline_s, source_world=source_world, lineage=self._lineage,
        )
        if FAULTS.active:
            FAULTS.on_deliver(message)
        return message

    # Collective traffic rides dense, uncharged internal lanes: the payload
    # is always a private copy (ndarray or object) and never enters the
    # transport.  ``seq`` is the collective's sequence number, used as tag.

    def _coll_post(self, payload: Any, dest: int, seq: int) -> None:
        self._post(dest, _Message(self._rank, seq, True, payload))

    def _coll_take(self, source: int, seq: int) -> Any:
        return self._consume(self._match(source, seq, internal=True), source).payload

    def _coll_send(self, buf: np.ndarray, dest: int, seq: int) -> None:
        self._coll_post(np.ascontiguousarray(buf).reshape(-1).copy(), dest, seq)

    def _coll_recv(self, buf: np.ndarray, source: int, seq: int) -> None:
        payload = self._coll_take(source, seq)
        flat = np.asarray(buf).reshape(-1)
        if payload.size != flat.size:
            raise TruncationError(
                f"collective lane {source}->{self._rank}: got {payload.size} "
                f"elements, buffer holds {flat.size}"
            )
        flat[:] = payload.astype(flat.dtype, copy=False)

    def _check_source(self, source: int) -> None:
        if source != ANY_SOURCE and not 0 <= source < len(self._world_ranks):
            self._check_rank(source, "source")

    def _match(self, source: int, tag: int, internal: bool) -> Callable[[_Message], bool]:
        """Matching predicate for a receive; the one place every receive
        entry point (``Recv``/``Irecv``/``recv``/``Iprobe``/``purge`` and
        the collectives) validates ``source``."""
        self._check_source(source)

        def fn(message: _Message) -> bool:
            if message.internal != internal:
                return False
            if source != ANY_SOURCE and message.source != source:
                return False
            if tag != ANY_TAG and message.tag != tag:
                return False
            return True

        return fn


def _safe_copy(obj: Any) -> Any:
    """Isolate sender and receiver: arrays are copied, objects deep-copied.

    This mimics the serialization barrier of real MPI so tests catch
    accidental shared-state mutation between "processes".
    """
    if isinstance(obj, np.ndarray):
        return obj.copy()
    try:
        return _copy.deepcopy(obj)
    except Exception:
        return obj
