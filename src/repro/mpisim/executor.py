"""SPMD thread executor: run ``fn(comm, *args)`` once per rank.

``run_spmd(nprocs, fn)`` is this runtime's ``mpiexec -n nprocs``.  Each rank
runs in its own thread over a shared :class:`~repro.mpisim.fabric.Fabric`; the
first exception aborts every blocked peer (MPI_Abort semantics) and is
re-raised to the caller with its rank attached.

The driver never blocks forever on its workers: ranks wedged *inside* the
fabric are caught by the fabric's own deadlock watchdog, and ranks wedged
*outside* it (user compute that never returns) are caught by a join
timeout derived from ``deadlock_timeout``.  The resulting
:class:`SpmdHangError` names the stuck ranks and — when tracing is on —
the span stack each one was inside (see :mod:`repro.obs.tracer`).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..faults.injector import FAULTS
from ..obs.tracer import TRACER
from .comm import Communicator
from .errors import AbortError, CommunicatorError, RankCrashError
from .fabric import DEFAULT_DEADLOCK_TIMEOUT, Fabric

WORLD_ID = "world"

#: Executor kinds ``run_spmd`` accepts (argument or ``DDR_EXECUTOR`` env).
EXECUTOR_THREAD = "thread"
EXECUTOR_PROCESS = "process"
_VALID_EXECUTORS = (EXECUTOR_THREAD, EXECUTOR_PROCESS)


def default_executor() -> str:
    """The process-wide default executor (``DDR_EXECUTOR``, else thread)."""
    return os.environ.get("DDR_EXECUTOR", "").strip().lower() or EXECUTOR_THREAD


@dataclass
class RankFailure(Exception):
    """Wraps the first per-rank exception with the failing rank number."""

    rank: int
    original: BaseException

    def __str__(self) -> str:
        return f"rank {self.rank} failed: {self.original!r}"


class SpmdHangError(RuntimeError):
    """Workers outlived the join timeout; lists who is stuck where.

    ``executor`` names the executor kind the run used ("thread" or
    "process") and — for process ranks — ``pids`` maps each world rank to
    its child PID, so a stuck process can be inspected (``py-spy``, ``gdb``)
    or killed from the report alone.
    """

    def __init__(
        self,
        stuck: list[int],
        timeout: float,
        detail: str,
        executor: str = EXECUTOR_THREAD,
        pids: Optional[dict[int, Optional[int]]] = None,
    ) -> None:
        self.stuck_ranks = stuck
        self.executor = executor
        self.pids = dict(pids) if pids else {}
        super().__init__(
            f"{len(stuck)} rank(s) still running after {timeout:.1f}s join "
            f"timeout on the {executor} executor: {detail}"
        )


def world_communicators(
    nprocs: int, deadlock_timeout: float = DEFAULT_DEADLOCK_TIMEOUT
) -> list[Communicator]:
    """Create the COMM_WORLD endpoints for ``nprocs`` ranks on a new fabric."""
    fabric = Fabric(nprocs, deadlock_timeout)
    return [
        Communicator(fabric, WORLD_ID, tuple(range(nprocs)), rank) for rank in range(nprocs)
    ]


def _stuck_detail(stuck: list[int], dead: frozenset[int] = frozenset()) -> str:
    """Name each stuck rank and, if tracing is on, its open span stack.

    Ranks the liveness table (or the fault layer) already knows are dead
    are reported as "crashed", not listed among the stuck ranks with open
    spans — a crashed rank isn't wedged, it was killed by the fault plan.

    When a fault plan is installed the report also carries the
    fault-injection state — the active plan, each rank's op count, and any
    retry in progress — so a chaos-test hang is diagnosable from the error
    message alone.
    """
    active = TRACER.active_spans()
    crashed = set(dead)
    if FAULTS.active:
        crashed |= FAULTS.crashed_ranks()
    parts = []
    for rank in stuck:
        if rank in crashed:
            parts.append(f"rank {rank} crashed (killed by the fault plan; not stuck)")
            continue
        spans = active.get(rank)
        notes = []
        if spans:
            notes.append(f"in {' > '.join(spans)}")
        elif TRACER.enabled:
            notes.append("(no open span)")
        else:
            notes.append("(enable tracing for span context)")
        if FAULTS.active:
            retry = FAULTS.pending_retries.get(rank)
            notes.append(
                f"[faults: op {FAULTS.op_count(rank)}"
                + (f", retrying {retry}" if retry else "")
                + "]"
            )
        parts.append(f"rank {rank} " + " ".join(notes))
    detail = "; ".join(parts)
    if FAULTS.active:
        detail += f" | fault layer: {FAULTS.diagnostics()}"
    return detail


def run_spmd(
    nprocs: int,
    fn: Callable[..., Any],
    *args: Any,
    deadlock_timeout: float = DEFAULT_DEADLOCK_TIMEOUT,
    join_timeout: Optional[float] = None,
    resilient: bool = False,
    executor: Optional[str] = None,
    spawn_slots: int = 0,
    **kwargs: Any,
) -> list[Any]:
    """Execute ``fn(comm, *args, **kwargs)`` on ``nprocs`` ranks.

    Returns the per-rank return values, in rank order.  If any rank raises,
    every other rank is aborted and :class:`RankFailure` propagates the
    first failure (by rank order among failures).

    ``executor`` selects how ranks run: ``"thread"`` (the default) shares
    one address space and supports the zero-copy transport; ``"process"``
    (see :mod:`repro.mpisim.procexec`) forks one OS process per rank —
    true multi-core parallelism, payloads via shared memory.  ``None``
    follows the ``DDR_EXECUTOR`` environment variable.

    With ``resilient=True`` a :class:`RankCrashError` does *not* abort the
    run: the crashed rank is recorded in the fabric's liveness table (so
    survivors' blocked operations surface typed failures instead of
    hanging), its slot in the result list holds the crash exception, and
    the surviving ranks keep running — the contract ULFM-style recovery
    (``repro.resilience``) builds on.  Any other exception still aborts.
    A rank that returns retires in the liveness table, so survivors'
    agreements and recoveries stop waiting for it.

    ``join_timeout`` bounds how long the driver waits for worker threads
    *without observing progress* (a worker finishing renews the window); it
    defaults to ``deadlock_timeout * 1.5 + 5`` so the fabric's own
    watchdog, which fires within ``deadlock_timeout`` for any rank blocked
    in communication, always gets to report first.  A rank wedged outside
    the fabric — e.g. user compute that never returns — trips the join
    timeout instead, and :class:`SpmdHangError` reports the stuck ranks
    with their current trace spans.

    ``spawn_slots`` reserves capacity for ranks joining the running world
    via :meth:`Communicator.spawn` (elastic grow).  The thread executor
    grows its fabric in place and ignores the value; the process executor
    pre-provisions that many extra queue slots so forked joiners have
    endpoints.  A spawned rank has no slot in the returned result list: a
    clean return retires it, a failure aborts the run and is reported like
    any rank failure.
    """
    if nprocs < 1:
        raise CommunicatorError(f"need at least one rank, got {nprocs}")
    kind = (executor or default_executor()).strip().lower()
    if kind not in _VALID_EXECUTORS:
        raise CommunicatorError(
            f"unknown executor {kind!r} (use one of {_VALID_EXECUTORS})"
        )
    if kind == EXECUTOR_PROCESS:
        from .procexec import run_spmd_processes

        return run_spmd_processes(
            nprocs,
            fn,
            *args,
            deadlock_timeout=deadlock_timeout,
            join_timeout=join_timeout,
            resilient=resilient,
            spawn_slots=spawn_slots,
            **kwargs,
        )

    if join_timeout is None:
        join_timeout = deadlock_timeout * 1.5 + 5.0
    comms = world_communicators(nprocs, deadlock_timeout)
    fabric = comms[0].fabric
    fabric.resilient = resilient
    results: list[Any] = [None] * nprocs
    failures: dict[int, BaseException] = {}
    failures_lock = threading.Lock()

    def worker(rank: int) -> None:
        TRACER.set_thread_rank(rank)
        try:
            results[rank] = fn(comms[rank], *args, **kwargs)
        except AbortError:
            # Secondary failure caused by another rank's abort; ignore.
            pass
        except RankCrashError as exc:
            if resilient:
                # Simulated process death: record it in the liveness table
                # and let the survivors carry on (ULFM semantics).
                results[rank] = exc
                fabric.mark_dead(rank)
            else:
                with failures_lock:
                    failures[rank] = exc
                fabric.abort(exc)
        except BaseException as exc:  # noqa: BLE001 - must propagate anything
            with failures_lock:
                failures[rank] = exc
            fabric.abort(exc)
        else:
            if resilient:
                fabric.mark_retired(rank)

    threads = [
        threading.Thread(target=worker, args=(rank,), name=f"spmd-rank-{rank}", daemon=True)
        for rank in range(nprocs)
    ]
    for thread in threads:
        thread.start()

    try:
        # Join with a progress-renewed timeout: as long as at least one rank
        # finishes per window the wait continues, so long multi-phase runs are
        # unaffected; only a window with zero completions declares a hang.
        # Ranks started mid-run by ``Communicator.spawn`` are adopted into
        # the same wait (keyed by world rank): they may still be draining
        # shm lanes, or about to report a failure, when the originals return.
        pending = list(enumerate(threads))
        adopted = 0
        while True:
            spawned = fabric.spawned_threads()
            pending.extend(spawned[adopted:])
            adopted = len(spawned)
            if not pending:
                break
            progressed = False
            deadline = time.monotonic() + join_timeout
            for rank, thread in list(pending):
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
                if not thread.is_alive():
                    pending.remove((rank, thread))
                    progressed = True
            if pending and not progressed:
                stuck = [rank for rank, _ in pending]
                detail = _stuck_detail(stuck, dead=fabric.dead_ranks())
                # Wake any peers blocked on the wedged ranks; the stuck threads
                # themselves are daemons and cannot be killed, only reported.
                error = SpmdHangError(
                    stuck, join_timeout, detail, executor=EXECUTOR_THREAD
                )
                fabric.abort(error)
                raise error
    finally:
        # Unlink any shm segments the run staged (the shm transport under
        # the thread executor); live views in stuck daemons stay mapped.
        fabric.close_shm()

    # Failures raised by spawned ranks have no result-list slot; fold them
    # in so a grow-side crash surfaces exactly like an original rank's.
    failures.update(fabric.spawn_failures)
    if failures:
        first_rank = min(failures)
        raise RankFailure(first_rank, failures[first_rank]) from failures[first_rank]
    return results
