"""The fabric: shared state connecting every rank of one SPMD execution.

Mailboxes with matched-queue semantics, abort propagation, the ULFM-style
liveness / revocation tables, fault-aware agreement, and dynamic world
growth (``claim_world_slots`` / ``launch_rank``).  The fabric moves opaque
:class:`_Message` envelopes and never looks inside a payload: how a payload
crosses between ranks, and who releases its resources, is decided in
:mod:`repro.mpisim.transport`; the MPI surface ranks program against is
:class:`repro.mpisim.comm.Communicator`.  The process executor subclasses
:class:`Fabric` to bridge the same mailboxes across OS processes
(:mod:`repro.mpisim.procexec`).
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional, Sequence

from ..faults.injector import FAULTS
from ..obs.tracer import TRACER
from .errors import (
    AbortError,
    CommunicatorError,
    DeadlineError,
    ProcessFailedError,
    RankCrashError,
    RevokedError,
)
from .shm import ShmStagingPool

#: Default seconds a blocking call may wait before declaring deadlock.  Long
#: enough for slow CI machines, short enough that a hung test fails visibly.
DEFAULT_DEADLOCK_TIMEOUT = 120.0


@dataclass
class _Message:
    source: int  # rank within the communicator
    tag: int
    internal: bool
    # Opaque to the fabric: a dense ndarray, a transport-staged payload
    # (see repro.mpisim.transport), or any object for the lowercase API.
    payload: Any
    # Set by the fault layer only (see repro.faults.injector): a CRC32 seal
    # over the staged payload, and — for an injected corruption — the
    # sender's retained pristine payload, the verify-and-reretrieve source.
    checksum: Optional[int] = None
    pristine: Any = None
    # Staging-budget charge carried by the message: bytes reserved against
    # ``budget_rank``'s ledger when the payload was staged, released by
    # the transport call that drains the message (deliver, materialize,
    # discard).
    budget_rank: Optional[int] = None
    budget_bytes: int = 0


class Fabric:
    """Shared state connecting every rank of one SPMD execution."""

    #: Whether rank-to-rank traffic may carry live buffer references (the
    #: zero-copy rendezvous transport).  True here — every rank is a thread
    #: of this process.  The process executor's fabric sets this False and
    #: ``resolve_transport`` degrades ``zerocopy`` to ``shm``.
    supports_zerocopy = True

    def __init__(self, nprocs: int, deadlock_timeout: float = DEFAULT_DEADLOCK_TIMEOUT) -> None:
        if nprocs < 1:
            raise CommunicatorError(f"nprocs must be >= 1, got {nprocs}")
        self.nprocs = nprocs
        self.deadlock_timeout = deadlock_timeout
        self._locks = [threading.Lock() for _ in range(nprocs)]
        self._conds = [threading.Condition(lock) for lock in self._locks]
        self._mailboxes: dict[tuple[Hashable, int], deque[_Message]] = {}
        self._abort_exc: Optional[BaseException] = None
        #: ULFM-style failure state.  ``hazard`` is the single attribute the
        #: hot path checks (the FAULTS/TRACER discipline): it flips to True
        #: the first time a rank dies, retires, or a communicator is
        #: revoked, and never flips back during a run, so the fault-free
        #: cost is one attribute load per operation.
        self.hazard = False
        self._dead: set[int] = set()         # crashed world ranks
        self._retired: set[int] = set()      # ranks that exited cleanly early
        self._gone: frozenset[int] = frozenset()  # dead | retired, for checks
        self._revoked: set[Hashable] = set()  # revoked communicator ids
        self._state_lock = threading.Lock()
        #: Cross-rank blackboard for layers built on top of the fabric (the
        #: resilience package keeps its buddy checkpoint store here), so
        #: higher layers get process-shared state without import cycles.
        self.shared: dict[str, Any] = {}
        self.shared_lock = threading.Lock()
        self._agreements: dict[Hashable, dict[str, Any]] = {}
        self._shm_pool: Optional[ShmStagingPool] = None
        self._shm_lock = threading.Lock()
        #: Segment-name prefix for this fabric's staging pool; the process
        #: executor overrides it with a per-run prefix so the parent can
        #: sweep ``/dev/shm`` for hard-killed ranks' leftovers.
        self.shm_prefix: Optional[str] = None
        #: Segment-name prefix for cross-process blackboard stores (the
        #: shm-backed buddy checkpoint store).  ``None`` on the thread
        #: fabric — there, ``shared`` is already one address space.
        self.blackboard_prefix: Optional[str] = None
        #: Whether the executor that owns this fabric runs in resilient
        #: mode (``run_spmd(..., resilient=True)``): a spawned rank that
        #: raises :class:`RankCrashError` is then marked dead instead of
        #: aborting the run, mirroring the original ranks' contract.
        self.resilient = False
        #: Next unallocated world rank (``Communicator.spawn`` grows from
        #: here) and failures raised by spawned ranks — those have no slot
        #: in the driver's result list, so the executor merges this dict
        #: into its failure report after the join.
        self._next_world = nprocs
        self.spawn_failures: dict[int, BaseException] = {}
        #: (world rank, thread) of every rank ``launch_rank`` started, so
        #: the executor can join them before it tears the run down.
        self._spawned: list[tuple[int, threading.Thread]] = []

    # -- shm staging ---------------------------------------------------------

    def shm_pool(self) -> ShmStagingPool:
        """Lazily-created staging pool for the ``shm`` transport."""
        with self._shm_lock:
            if self._shm_pool is None:
                prefix = self.shm_prefix or f"ddr{os.getpid()}_f{id(self):x}"
                self._shm_pool = ShmStagingPool(prefix)
            return self._shm_pool

    def close_shm(self) -> None:
        """Unlink any shm segments this fabric's pool created."""
        with self._shm_lock:
            pool, self._shm_pool = self._shm_pool, None
        if pool is not None:
            pool.close()

    # -- abort ------------------------------------------------------------

    def abort(self, exc: BaseException) -> None:
        """Record a failure and wake every waiting rank so they raise too."""
        self._abort_exc = exc
        self._wake_all()

    @property
    def aborted(self) -> Optional[BaseException]:
        return self._abort_exc

    def check_abort(self) -> None:
        if self._abort_exc is not None:
            raise AbortError(f"peer rank failed: {self._abort_exc!r}") from self._abort_exc

    # -- liveness + revocation (ULFM-style) --------------------------------

    def _wake_all(self) -> None:
        for cond in self._conds:
            with cond:
                cond.notify_all()

    def mark_dead(self, world_rank: int) -> None:
        """Record a crashed rank in the liveness table and wake every waiter.

        Blocked operations involving the dead rank then raise a prompt
        :class:`ProcessFailedError` instead of waiting out a timeout.
        """
        with self._state_lock:
            self._dead.add(world_rank)
            self._gone = frozenset(self._dead | self._retired)
        self.hazard = True
        self._wake_all()

    def mark_retired(self, world_rank: int) -> None:
        """Record a rank that finished its work and exited early.

        For liveness purposes a retired rank behaves like a dead one — it
        will never contribute to an agreement or send another message —
        but its already-sent messages stay deliverable and diagnostics
        report it as retired, not crashed.
        """
        with self._state_lock:
            self._retired.add(world_rank)
            self._gone = frozenset(self._dead | self._retired)
        self.hazard = True
        self._wake_all()

    def is_dead(self, world_rank: int) -> bool:
        return world_rank in self._dead

    def is_gone(self, world_rank: int) -> bool:
        """Dead or retired: the rank will never take part in another op."""
        return world_rank in self._gone

    def dead_ranks(self) -> frozenset[int]:
        return frozenset(self._dead)

    def revoke(self, comm_id: Hashable) -> None:
        """Revoke a communicator: every pending or future operation on it
        (or on a communicator derived from it — lineage is checked) raises
        :class:`RevokedError`.  Idempotent; wakes all waiters."""
        with self._state_lock:
            self._revoked.add(comm_id)
        self.hazard = True
        self._wake_all()

    def is_revoked(self, lineage: Sequence[Hashable]) -> bool:
        revoked = self._revoked
        if not revoked:
            return False
        return not revoked.isdisjoint(lineage)

    def check_hazard(
        self,
        lineage: Sequence[Hashable],
        source_world: Optional[int],
        my_world: int,
    ) -> None:
        """Raise the typed ULFM error for a blocked op, if one applies.

        Callers only invoke this under ``self.hazard``; messages already in
        the mailbox are always drained first, so traffic a rank managed to
        send before dying remains deliverable.
        """
        if self._revoked and not self._revoked.isdisjoint(lineage):
            raise RevokedError(
                f"communicator {lineage[-1]!r} was revoked while rank "
                f"(world {my_world}) had a pending operation"
            )
        if source_world is not None and source_world in self._gone:
            kind = "crashed" if source_world in self._dead else "retired"
            raise ProcessFailedError(
                f"rank (world {my_world}) is waiting on world rank "
                f"{source_world}, which has {kind} and will never respond"
            )

    # -- fault-aware agreement ---------------------------------------------

    def agree_contribute(self, key: Hashable, world_rank: int, value: Any) -> None:
        with self._state_lock:
            entry = self._agreements.setdefault(key, {"values": {}, "reads": set()})
            entry["values"][world_rank] = value
        self._wake_all()

    def agree_poll(self, key: Hashable, members: Sequence[int]) -> Optional[dict[int, Any]]:
        """Return the contribution map once every live member contributed.

        Membership is re-evaluated against the liveness table on every
        poll, so a member dying mid-agreement unblocks the survivors.  The
        map only ever grows and dead ranks never contribute afterwards, so
        every caller that completes folds the same contribution set.
        """
        with self._state_lock:
            entry = self._agreements.setdefault(key, {"values": {}, "reads": set()})
            values = entry["values"]
            gone = self._gone
            if all(w in values for w in members if w not in gone):
                return dict(values)
            return None

    def agree_finish(self, key: Hashable, world_rank: int, members: Sequence[int]) -> None:
        """Garbage-collect an agreement once every live member has read it."""
        with self._state_lock:
            entry = self._agreements.get(key)
            if entry is None:
                return
            entry["reads"].add(world_rank)
            gone = self._gone
            if all(w in entry["reads"] for w in members if w not in gone):
                self._agreements.pop(key, None)

    # -- dynamic world growth (Communicator.spawn) ---------------------------

    def claim_world_slots(self, count: int) -> list[int]:
        """Allocate ``count`` fresh world ranks (called by the spawn root).

        The thread fabric grows in place: new per-rank condition variables
        are appended, so existing world ranks keep their indices and every
        established queue stays valid.  The process executor overrides this
        to hand out pre-provisioned reserve slots instead (forked ranks
        need queues that existed before the fork).
        """
        with self._state_lock:
            start = self._next_world
            for _ in range(count):
                lock = threading.Lock()
                self._locks.append(lock)
                self._conds.append(threading.Condition(lock))
            self.nprocs = len(self._locks)
            self._next_world = start + count
            return list(range(start, start + count))

    def note_world_slots(self, worlds: Sequence[int]) -> None:
        """Record world slots another rank's fabric claimed.

        On the thread fabric every rank shares one object, so this is a
        no-op beyond an idempotent counter bump; under the process executor
        each rank holds its own fabric and uses this to keep the slot
        allocator in lockstep with the spawn root.
        """
        if not worlds:
            return
        top = max(worlds) + 1
        with self._state_lock:
            while len(self._locks) < top:
                lock = threading.Lock()
                self._locks.append(lock)
                self._conds.append(threading.Condition(lock))
            self.nprocs = max(self.nprocs, len(self._locks))
            self._next_world = max(self._next_world, top)

    def launch_rank(
        self,
        world_rank: int,
        comm_id: Hashable,
        world_ranks: Sequence[int],
        rank: int,
        lineage: Sequence[Hashable],
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
    ) -> None:
        """Start a freshly spawned rank running ``fn(comm, *args, **kwargs)``.

        Thread-fabric implementation: a daemon worker thread with the same
        failure contract as ``run_spmd``'s original workers — a clean
        return retires the rank in the liveness table, a
        :class:`RankCrashError` on a resilient fabric marks it dead, and
        anything else aborts the run and is recorded in
        ``spawn_failures`` (spawned ranks have no result-list slot).
        """
        from .comm import Communicator  # comm imports this module

        comm = Communicator(self, comm_id, world_ranks, rank, lineage=lineage)

        def main() -> None:
            TRACER.set_thread_rank(world_rank)
            try:
                fn(comm, *args, **kwargs)
            except AbortError:
                pass
            except RankCrashError as exc:
                if self.resilient:
                    self.mark_dead(world_rank)
                else:
                    with self._state_lock:
                        self.spawn_failures[world_rank] = exc
                    self.abort(exc)
            except BaseException as exc:  # noqa: BLE001 - must propagate anything
                with self._state_lock:
                    self.spawn_failures[world_rank] = exc
                self.abort(exc)
            else:
                self.mark_retired(world_rank)

        thread = threading.Thread(
            target=main, name=f"spmd-spawn-{world_rank}", daemon=True
        )
        with self._state_lock:
            self._spawned.append((world_rank, thread))
        thread.start()

    def spawned_threads(self) -> list[tuple[int, threading.Thread]]:
        """(world rank, thread) of every rank :meth:`launch_rank` started."""
        with self._state_lock:
            return list(self._spawned)

    # -- mailbox operations -------------------------------------------------

    def _box(self, comm_id: Hashable, world_rank: int) -> deque[_Message]:
        key = (comm_id, world_rank)
        box = self._mailboxes.get(key)
        if box is None:
            box = self._mailboxes.setdefault(key, deque())
        return box

    def post(self, comm_id: Hashable, dest_world: int, message: _Message) -> None:
        # Each condition wraps the lock of the same index; entering the raw
        # lock skips two Python-level calls on a once-per-message path.
        with self._locks[dest_world]:
            self._box(comm_id, dest_world).append(message)
            self._conds[dest_world].notify_all()

    def try_consume(
        self,
        comm_id: Hashable,
        my_world: int,
        match: Callable[[_Message], bool],
    ) -> Optional[_Message]:
        """Atomically remove and return the first matching message, if any."""
        with self._locks[my_world]:
            return self._scan(comm_id, my_world, match)

    def _scan(
        self, comm_id: Hashable, my_world: int, match: Callable[[_Message], bool]
    ) -> Optional[_Message]:
        box = self._box(comm_id, my_world)
        for index, message in enumerate(box):
            if match(message):
                del box[index]
                return message
        return None

    def consume(
        self,
        comm_id: Hashable,
        my_world: int,
        match: Callable[[_Message], bool],
        deadline_s: Optional[float] = None,
        source_world: Optional[int] = None,
        lineage: Optional[Sequence[Hashable]] = None,
    ) -> _Message:
        """Blocking matched receive with abort, failure, and deadlock handling.

        ``deadline_s`` (from a :class:`~repro.faults.ReliabilityPolicy`'s
        per-operation deadline) bounds this one receive below the global
        deadlock timeout, so a dropped message surfaces as a prompt, typed
        :class:`DeadlineError` instead of a full watchdog wait.

        ``source_world``/``lineage`` feed the liveness and revocation
        checks: if the awaited source is known dead (and no matching
        message is already queued) or the communicator is revoked, the
        wait ends in a typed error instead of a hang.  Both checks run
        only under :attr:`hazard`, and only after the mailbox scan, so
        messages sent before a crash stay deliverable.
        """
        timeout = self.deadlock_timeout
        per_op = deadline_s is not None and deadline_s < timeout
        if per_op:
            timeout = deadline_s
        cond = self._conds[my_world]
        deadline = time.monotonic() + timeout
        with self._locks[my_world]:
            while True:
                self.check_abort()
                found = self._scan(comm_id, my_world, match)
                if found is not None:
                    return found
                if self.hazard:
                    self.check_hazard(
                        lineage if lineage is not None else (comm_id,),
                        source_world,
                        my_world,
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    if per_op:
                        raise DeadlineError(
                            f"rank (world {my_world}) got no matching message on "
                            f"comm {comm_id!r} within the {timeout}s per-operation "
                            f"deadline; message lost or peer stalled "
                            f"({FAULTS.diagnostics()})"
                        )
                    raise DeadlineError(
                        f"rank (world {my_world}) blocked > {self.deadlock_timeout}s "
                        f"waiting on comm {comm_id!r}; likely deadlock"
                    )
                cond.wait(timeout=min(0.25, remaining))

    def mailbox_depth(
        self,
        world_rank: Optional[int] = None,
        comm_id: Optional[Hashable] = None,
    ) -> int:
        """Number of queued (undelivered) messages, for leak assertions.

        Counts across every mailbox by default; narrow with ``world_rank``
        (one receiver) and/or ``comm_id`` (one communicator).  Each rank's
        boxes are counted under that rank's own condition lock, so the
        total is a consistent per-rank snapshot even while senders post.
        """
        total = 0
        for (box_comm, box_rank), box in list(self._mailboxes.items()):
            if world_rank is not None and box_rank != world_rank:
                continue
            if comm_id is not None and box_comm != comm_id:
                continue
            with self._conds[box_rank]:
                total += len(box)
        return total

