"""SPMD process executor: each rank is a real OS process (GIL escape).

``run_spmd(nprocs, fn, executor="process")`` runs ``fn(comm, *args)`` once
per rank like the thread executor, but each rank is a forked child with its
own interpreter, so pack/unpack and user compute run truly in parallel.

Architecture
------------

Every child builds a :class:`ProcessFabric` — a *local* ``Fabric`` whose
mailboxes hold only this rank's traffic.  Cross-rank posts travel as
pickled envelopes through one ``multiprocessing.Queue`` per rank; a daemon
drain thread in each child folds incoming envelopes back into the local
fabric (message delivery, revocation, liveness, agreement contributions),
which wakes the base class's condition variables exactly as a same-process
post would.  ``Communicator`` therefore runs unmodified on top.

Bulk payloads do **not** go through the queues: ``ProcessFabric`` sets
``supports_zerocopy = False``, so ``resolve_transport`` degrades the
zero-copy transport to ``shm`` and payloads above ``SHM_MIN_BYTES`` move
through pooled POSIX shared-memory segments (see ``repro.mpisim.shm``) —
the queue only carries a tiny :class:`~repro.mpisim.shm.ShmTicket`.

Control plane (parent side):

* result queue — each child ships one :class:`_ResultEnvelope` carrying
  its return value (or exception), its closed trace spans, and its fault
  stats; the parent merges spans into the process-wide ``TRACER`` (the
  epoch is shared — ``time.perf_counter`` is system-wide on Linux — so
  all ranks land on one timeline) and fault counters into ``FAULTS``.
* abort event + text — ``Fabric.abort`` in any child trips it; peers
  notice within one 0.25 s condition-wait tick.
* hard-death watch — a child that vanishes without an envelope (``os._exit``,
  ``SIGKILL``) is detected by the parent, which marks it dead for the
  survivors (``resilient=True``) or aborts the run with a typed
  :class:`~repro.mpisim.errors.ProcessFailedError`.
* done event — children hold their shared-memory segments (and their
  result-queue feeder) until the parent has collected every result, so a
  receiver can never attach a segment its sender already unlinked.  After
  the run the parent additionally sweeps ``/dev/shm`` by run prefix, so
  even hard-killed ranks leak nothing.

Ranks are forked: children inherit ``fn``/closures/module state, so every
existing ``run_spmd`` call site works unchanged.

Known semantic differences from the thread executor (see DESIGN.md):
``fabric.shared`` (the cross-rank blackboard) is process-local here —
mitigated for the resilience layer by ``blackboard_prefix``, which makes
``shared_store`` hand out the ``/dev/shm``-backed
:class:`~repro.resilience.shmstore.ShmBuddyStore` whose deposits outlive
the depositing process — and fault-plan op counters restart per child
(deterministic per rank either way).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue as _queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional, Sequence

from ..faults.injector import FAULTS
from ..obs.tracer import TRACER, SpanRecord
from .comm import Communicator
from .errors import AbortError, CommunicatorError, ProcessFailedError, RankCrashError
from .fabric import DEFAULT_DEADLOCK_TIMEOUT, Fabric, _Message
from .shm import sweep_prefix

__all__ = ["ProcessFabric", "run_spmd_processes"]

#: Envelope kinds on the per-rank inbox queues.
_ENV_MSG = "msg"
_ENV_REVOKE = "revoke"
_ENV_AGREE = "agree"
_ENV_DEAD = "dead"
_ENV_RETIRED = "retired"

_run_seq = 0
_run_seq_lock = threading.Lock()


def _next_run_prefix() -> str:
    global _run_seq
    with _run_seq_lock:
        _run_seq += 1
        return f"ddrp{os.getpid()}x{_run_seq}"


@dataclass
class _ProcCfg:
    """Everything a child needs, shipped across the process boundary."""

    nprocs: int
    deadlock_timeout: float
    resilient: bool
    shm_prefix: str
    queues: list  # one inbox Queue per world rank (original + spawn reserve)
    result_queue: Any
    abort_event: Any
    abort_text: Any  # ctypes char array: repr of the aborting exception
    done_event: Any
    trace_enabled: bool
    trace_epoch: float
    spawn_slots: int = 0  # reserve queue slots for Communicator.spawn joiners
    plan: Any = None  # FaultPlan, or None
    policy: Any = None  # ReliabilityPolicy, or None


@dataclass
class _ResultEnvelope:
    """One child's final report back to the parent."""

    rank: int
    pid: int
    kind: str  # "ok" | "aborted" | "crashed" | "error"
    value: Any = None
    spans: list = field(default_factory=list)
    fault_stats: dict = field(default_factory=dict)


class ProcessFabric(Fabric):
    """A rank-local fabric bridged to its peers by queues.

    Inherits all of ``Fabric``'s matching, hazard, and agreement machinery;
    only delivery (``post``), abort visibility, and the fault-tolerance
    broadcasts are overridden to cross the process boundary.
    """

    supports_zerocopy = False  # live buffer refs cannot leave this process

    def __init__(self, cfg: _ProcCfg, my_world: int) -> None:
        # Size the local tables for every provisioned slot (original ranks
        # plus the spawn reserve) so envelopes from late joiners always
        # have a condition variable to land on.
        super().__init__(cfg.nprocs + cfg.spawn_slots, cfg.deadlock_timeout)
        self._next_world = cfg.nprocs  # reserve slots are claimed, not grown
        self.resilient = cfg.resilient
        self.cfg = cfg
        self.my_world = my_world
        self.shm_prefix = f"{cfg.shm_prefix}r{my_world}"
        self.blackboard_prefix = f"{cfg.shm_prefix}bb"
        self._drain_stop = threading.Event()
        self._drain_thread = threading.Thread(
            target=self._drain, name=f"spmd-drain-{my_world}", daemon=True
        )
        self._drain_thread.start()

    # -- cross-process delivery ---------------------------------------------

    def post(self, comm_id: Hashable, dest_world: int, message: _Message) -> None:
        if dest_world == self.my_world:
            super().post(comm_id, dest_world, message)
            return
        self.cfg.queues[dest_world].put((_ENV_MSG, comm_id, message))

    def _broadcast(self, envelope: tuple) -> None:
        for world, q in enumerate(self.cfg.queues):
            if world != self.my_world:
                try:
                    q.put(envelope)
                except Exception:
                    pass  # peer's queue torn down; it is exiting anyway

    def _drain(self) -> None:
        """Fold incoming envelopes into the local fabric (daemon thread)."""
        inbox = self.cfg.queues[self.my_world]
        while not self._drain_stop.is_set():
            try:
                envelope = inbox.get(timeout=0.25)
            except _queue.Empty:
                continue
            except (EOFError, OSError):
                return  # queue torn down at shutdown
            kind = envelope[0]
            if kind == _ENV_MSG:
                _, comm_id, message = envelope
                super().post(comm_id, self.my_world, message)
            elif kind == _ENV_AGREE:
                _, key, world, value = envelope
                super().agree_contribute(key, world, value)
            elif kind == _ENV_REVOKE:
                super().revoke(envelope[1])
            elif kind == _ENV_DEAD:
                super().mark_dead(envelope[1])
            elif kind == _ENV_RETIRED:
                super().mark_retired(envelope[1])

    def stop_drain(self) -> None:
        self._drain_stop.set()

    # -- abort (shared event + text, so peers in other processes see it) ----

    def abort(self, exc: BaseException) -> None:
        text = repr(exc).encode("utf-8", "replace")[: len(self.cfg.abort_text) - 1]
        try:
            self.cfg.abort_text.value = text
        except Exception:
            pass
        self.cfg.abort_event.set()
        super().abort(exc)

    def check_abort(self) -> None:
        if self._abort_exc is None and self.cfg.abort_event.is_set():
            text = self.cfg.abort_text.value.decode("utf-8", "replace")
            self._abort_exc = RuntimeError(text or "peer process failed")
        super().check_abort()

    # -- ULFM broadcasts -----------------------------------------------------

    def mark_dead(self, world_rank: int) -> None:
        super().mark_dead(world_rank)
        self._broadcast((_ENV_DEAD, world_rank))

    def mark_retired(self, world_rank: int) -> None:
        super().mark_retired(world_rank)
        self._broadcast((_ENV_RETIRED, world_rank))

    def revoke(self, comm_id: Hashable) -> None:
        super().revoke(comm_id)
        self._broadcast((_ENV_REVOKE, comm_id))

    def agree_contribute(self, key: Hashable, world_rank: int, value: Any) -> None:
        super().agree_contribute(key, world_rank, value)
        self._broadcast((_ENV_AGREE, key, world_rank, value))

    def agree_finish(
        self, key: Hashable, world_rank: int, members: Sequence[int]
    ) -> None:
        # This process has exactly one reader; GC the local copy right away.
        with self._state_lock:
            self._agreements.pop(key, None)

    # -- dynamic world growth (Communicator.spawn) ---------------------------

    def claim_world_slots(self, count: int) -> list[int]:
        """Claim ``count`` of the reserve queue slots provisioned at launch.

        Unlike the thread fabric this cannot grow in place: a forked joiner
        needs an inbox queue that existed before any fork, so capacity is
        fixed by ``run_spmd(..., spawn_slots=k)``.
        """
        with self._state_lock:
            start = self._next_world
            if start + count > len(self.cfg.queues):
                free = len(self.cfg.queues) - start
                raise CommunicatorError(
                    f"cannot spawn {count} rank(s): {free} reserve slot(s) "
                    f"left on the process executor — launch with "
                    f"run_spmd(..., spawn_slots=...)"
                )
            self._next_world = start + count
            return list(range(start, start + count))

    def note_world_slots(self, worlds: Sequence[int]) -> None:
        if not worlds:
            return
        with self._state_lock:
            self._next_world = max(self._next_world, max(worlds) + 1)

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
        """Fork a new OS-process rank into the running world (spawn root).

        The joiner inherits this run's queues, events, and ``fn``'s closure
        state.
        """
        ctx = mp.get_context("fork")
        # SPMD children are daemonic so a dying driver reaps them, but a
        # daemonic process may not fork children of its own.  Lift the flag
        # around the fork — the joiner is governed by the run's done_event
        # protocol (and the parent's /dev/shm sweep) instead.
        proc_state = mp.current_process()._config
        was_daemon = proc_state.get("daemon", False)
        proc_state["daemon"] = False
        try:
            proc = ctx.Process(
                target=_spawned_child_main,
                args=(
                    self.cfg,
                    world_rank,
                    comm_id,
                    tuple(world_ranks),
                    rank,
                    tuple(lineage),
                    fn,
                    args,
                    kwargs,
                ),
                name=f"spmd-spawn-{world_rank}",
            )
            proc.start()
        finally:
            proc_state["daemon"] = was_daemon


# ---------------------------------------------------------------------------
# Child side
# ---------------------------------------------------------------------------


def _pickle_safe(envelope: _ResultEnvelope) -> _ResultEnvelope:
    """Ensure the envelope survives the result queue's feeder thread.

    An unpicklable return value (or exception) would die silently in the
    feeder and hang the parent; degrade it to a ``repr`` instead.
    """
    try:
        pickle.dumps(envelope)
        return envelope
    except Exception:
        pass
    fallback = RuntimeError(
        f"rank {envelope.rank} produced an unpicklable "
        f"{'result' if envelope.kind == 'ok' else 'exception'}: "
        f"{envelope.value!r}"
    )
    envelope.value = fallback if envelope.kind != "ok" else repr(fallback)
    if envelope.kind == "ok":
        envelope.kind = "error"
        envelope.value = fallback
    try:
        pickle.dumps(envelope)
    except Exception:
        envelope.spans = []
        envelope.fault_stats = {}
    return envelope


def _child_main(
    cfg: _ProcCfg,
    rank: int,
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
) -> None:
    from . import shm as shm_mod
    from .executor import WORLD_ID

    # Fork hygiene: the parent's shm handle caches (and any attached
    # segments) are not ours to unlink.
    shm_mod.forget_foreign()
    TRACER.reset_for_child(cfg.trace_epoch, cfg.trace_enabled)
    TRACER.set_thread_rank(rank)
    if cfg.plan is not None:
        FAULTS.install(cfg.plan, cfg.policy)  # fresh per-child op counters
    else:
        FAULTS.clear()

    fabric = ProcessFabric(cfg, rank)
    comm = Communicator(fabric, WORLD_ID, tuple(range(cfg.nprocs)), rank)
    kind, value = "ok", None
    try:
        value = fn(comm, *args, **kwargs)
    except RankCrashError as exc:
        if cfg.resilient:
            fabric.mark_dead(rank)  # broadcasts to the survivors
            kind, value = "crashed", exc
        else:
            fabric.abort(exc)
            kind, value = "error", exc
    except BaseException as exc:  # noqa: BLE001 - must report anything
        if fabric.aborted is not None or cfg.abort_event.is_set():
            kind, value = "aborted", None  # secondary failure; first wins
        else:
            fabric.abort(exc)
            kind, value = "error", exc

    envelope = _pickle_safe(
        _ResultEnvelope(
            rank=rank,
            pid=os.getpid(),
            kind=kind,
            value=value,
            spans=TRACER.records() if cfg.trace_enabled else [],
            fault_stats=FAULTS.stats.snapshot() if cfg.plan is not None else {},
        )
    )
    cfg.result_queue.put(envelope)
    # Hold our shm segments (and this process) until the parent has every
    # result: a peer may still be unpacking out of a segment we own.
    cfg.done_event.wait(timeout=cfg.deadlock_timeout * 2 + 10)
    fabric.stop_drain()
    fabric.close_shm()
    for q in [*cfg.queues, cfg.result_queue]:
        try:
            q.cancel_join_thread()
        except Exception:
            pass


def _spawned_child_main(
    cfg: _ProcCfg,
    world_rank: int,
    comm_id: Hashable,
    world_ranks: tuple,
    rank: int,
    lineage: tuple,
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
) -> None:
    """Entry point of a rank forked into a *running* world by ``spawn``.

    Mirrors ``_child_main`` with two differences: the communicator is the
    merged spawn communicator (not COMM_WORLD), and no result envelope is
    shipped — spawned ranks have no slot in the driver's result list, so a
    clean return retires the rank in the liveness table and a failure
    aborts the run (resilient ``RankCrashError`` aside), exactly like the
    thread fabric's ``launch_rank``.
    """
    from . import shm as shm_mod

    shm_mod.forget_foreign()
    TRACER.reset_for_child(cfg.trace_epoch, cfg.trace_enabled)
    TRACER.set_thread_rank(world_rank)
    if cfg.plan is not None:
        FAULTS.install(cfg.plan, cfg.policy)
    else:
        FAULTS.clear()

    fabric = ProcessFabric(cfg, world_rank)
    fabric.note_world_slots(world_ranks)  # slot allocator in lockstep with root
    comm = Communicator(fabric, comm_id, world_ranks, rank, lineage=lineage)
    try:
        fn(comm, *args, **kwargs)
    except AbortError:
        pass
    except RankCrashError as exc:
        if cfg.resilient:
            fabric.mark_dead(world_rank)
        else:
            fabric.abort(exc)
    except BaseException as exc:  # noqa: BLE001 - must surface anything
        if fabric.aborted is None and not cfg.abort_event.is_set():
            fabric.abort(exc)
    else:
        fabric.mark_retired(world_rank)
    # Same shutdown discipline as _child_main: hold shm segments until the
    # parent has collected every original rank's result.
    cfg.done_event.wait(timeout=cfg.deadlock_timeout * 2 + 10)
    fabric.stop_drain()
    fabric.close_shm()
    for q in [*cfg.queues, cfg.result_queue]:
        try:
            q.cancel_join_thread()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


def run_spmd_processes(
    nprocs: int,
    fn: Callable[..., Any],
    *args: Any,
    deadlock_timeout: float = DEFAULT_DEADLOCK_TIMEOUT,
    join_timeout: Optional[float] = None,
    resilient: bool = False,
    spawn_slots: int = 0,
    **kwargs: Any,
) -> list[Any]:
    """Process-executor twin of ``run_spmd``; same contract, real processes.

    Called through ``run_spmd(..., executor="process")`` — see there for
    the full semantics (result ordering, ``RankFailure``, ``resilient``).
    ``spawn_slots`` pre-provisions inbox queues for ranks that may join
    the running world via ``Communicator.spawn`` — forked joiners need
    endpoints that existed before any fork.
    """
    from .executor import RankFailure, SpmdHangError, _stuck_detail

    if join_timeout is None:
        join_timeout = deadlock_timeout * 1.5 + 5.0
    spawn_slots = max(0, spawn_slots)
    ctx = mp.get_context("fork")

    # One shared resource tracker for the whole process tree: started
    # before the fork, so children do not each spawn (and fight over)
    # their own tracker daemons.
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:
        pass

    cfg = _ProcCfg(
        nprocs=nprocs,
        deadlock_timeout=deadlock_timeout,
        resilient=resilient,
        shm_prefix=_next_run_prefix(),
        queues=[ctx.Queue() for _ in range(nprocs + spawn_slots)],
        spawn_slots=spawn_slots,
        result_queue=ctx.Queue(),
        abort_event=ctx.Event(),
        abort_text=ctx.Array("c", 2048),
        done_event=ctx.Event(),
        trace_enabled=TRACER.enabled,
        trace_epoch=TRACER.epoch,
        plan=FAULTS.plan if FAULTS.active else None,
        policy=FAULTS.policy if FAULTS.active else None,
    )

    procs = [
        ctx.Process(
            target=_child_main,
            args=(cfg, rank, fn, args, kwargs),
            name=f"spmd-proc-{rank}",
            daemon=True,
        )
        for rank in range(nprocs)
    ]
    for proc in procs:
        proc.start()
    pids = {rank: proc.pid for rank, proc in enumerate(procs)}

    results: list[Any] = [None] * nprocs
    failures: dict[int, BaseException] = {}
    envelopes: dict[int, _ResultEnvelope] = {}
    pending = set(range(nprocs))

    def handle(env: _ResultEnvelope) -> None:
        envelopes[env.rank] = env
        pending.discard(env.rank)
        if env.kind == "ok":
            results[env.rank] = env.value
        elif env.kind == "crashed":
            results[env.rank] = env.value  # RankCrashError, as in resilient threads
        elif env.kind == "error":
            failures[env.rank] = env.value

    def handle_hard_death(rank: int, exitcode: Optional[int]) -> None:
        """A child vanished without reporting: killed or ``os._exit``."""
        pending.discard(rank)
        exc = ProcessFailedError(
            f"rank {rank} (pid {pids[rank]}) exited with code {exitcode} "
            f"without reporting a result"
        )
        if resilient:
            results[rank] = exc
            for peer in pending:
                try:
                    cfg.queues[peer].put((_ENV_DEAD, rank))
                except Exception:
                    pass
        else:
            failures[rank] = exc
            try:
                cfg.abort_text.value = repr(exc).encode("utf-8", "replace")[:2047]
            except Exception:
                pass
            cfg.abort_event.set()

    try:
        # Progress-renewed join, mirroring the thread executor: any result
        # (or detected death) within a window renews it; a silent window
        # declares the hang.
        while pending:
            progressed = False
            deadline = time.monotonic() + join_timeout
            while pending and time.monotonic() < deadline:
                try:
                    env = cfg.result_queue.get(timeout=0.25)
                except _queue.Empty:
                    env = None
                if env is not None:
                    handle(env)
                    progressed = True
                for rank in sorted(pending):
                    proc = procs[rank]
                    if proc.is_alive():
                        continue
                    # Give a just-exited child's envelope a moment to
                    # surface through the queue before declaring it dead.
                    try:
                        late = cfg.result_queue.get(timeout=0.5)
                    except _queue.Empty:
                        late = None
                    if late is not None:
                        handle(late)
                        progressed = True
                    if rank in pending:
                        handle_hard_death(rank, proc.exitcode)
                        progressed = True
            if pending and not progressed:
                stuck = sorted(pending)
                detail = "; ".join(
                    f"rank {rank} (pid {pids[rank]}) alive with no result"
                    for rank in stuck
                )
                fault_note = _stuck_detail([], dead=frozenset())
                if fault_note:
                    detail += f" {fault_note}"
                cfg.abort_event.set()
                for proc in (procs[r] for r in stuck):
                    proc.terminate()
                raise SpmdHangError(
                    stuck, join_timeout, detail, executor="process", pids=pids
                )
    finally:
        cfg.done_event.set()
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for q in [*cfg.queues, cfg.result_queue]:
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:
                pass
        # Anything still named under this run's prefix belongs to a rank
        # that never got to clean up (hard kill): reap it.
        sweep_prefix(cfg.shm_prefix)
        _merge_observability(envelopes.values())

    if failures:
        first_rank = min(failures)
        raise RankFailure(first_rank, failures[first_rank]) from failures[first_rank]
    if cfg.abort_event.is_set() and any(
        env.kind == "aborted" for env in envelopes.values()
    ):
        # Every original rank reported a *secondary* abort and nobody owned
        # the primary failure: it originated in a spawned rank, which has
        # no result slot.  Surface it like any rank failure.
        text = cfg.abort_text.value.decode("utf-8", "replace")
        exc = ProcessFailedError(text or "a spawned rank failed")
        raise RankFailure(-1, exc) from exc
    return results


def _merge_observability(envelopes) -> None:
    """Fold children's spans and fault stats into the parent singletons."""
    spans: list[SpanRecord] = []
    for env in envelopes:
        spans.extend(env.spans)
        for name, count in env.fault_stats.items():
            FAULTS.stats.incr(name, count)
    if spans and TRACER.enabled:
        TRACER.ingest(spans)
