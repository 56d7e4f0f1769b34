"""The executor behind ``DDR_ReorganizeData``: replay one rank's schedule.

:func:`execute` walks the *executed* rounds of a mapping
(:meth:`~repro.core.schedule.RankPlan.executed`: merged while the staging
budget allows, split into piece-rounds where it does not) and puts each
round's lanes on the wire by one of two protocols, bit-identical in what
they deliver (property-tested), different only in messages and staging:

``alltoallw``
    One ``MPI_Alltoallw`` (paper §III-C) — the O(P) dense collective, with
    the self-transfer carried on the diagonal lane.
``p2p``
    The paper's §V future work: only actual partners communicate.  Every
    ``Irecv`` is posted, then every ``Isend`` (rendezvous on the zero-copy
    transport), then both are waited — no serialisation on arrival order.

The four ``backend=`` values are policies over those protocols
(:func:`~repro.core.schedule.round_protocol`): ``"alltoallw"`` and ``"p2p"``
always run their own, ``"auto"`` applies the density rule and ``"bounded"``
is another name for ``"p2p"``.  There is one budget rule for all four: on a
staged transport (``packed`` or ``shm``, which copy each payload into staging
the budget is charged for) a round over the memory budget runs as
piece-rounds of its own protocol
(:func:`~repro.core.schedule.executed_groups`); what no cut fits is left to
the ledger's typed ``MemoryBudgetError``.  Everything
is decided from the plan-wide statistics the schedule carries, so every rank
decides alike without communicating; the trace attribute and the wire
read the same executed schedule, so they agree by construction.

Around the protocols sits everything a run relies on: staleness and
communicator validation, cached buffer validation, transport resolution
(once per exchange; every ``Alltoallw``, ``Isend`` and self-copy of it
runs that wire), and the reliability loop — every planned round consults
the installed fault layer at round *entry* (before any message is posted,
so a local retry never desynchronises collective matching), backs off per
the :class:`~repro.faults.ReliabilityPolicy` installed with the plan, and
records completed rounds in an :class:`ExchangeProgress` so a failed
exchange can be resumed without re-running finished rounds.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

import numpy as np

from ..faults.injector import FAULTS
from ..mpisim.comm import Communicator
from ..mpisim.errors import RetriesExhaustedError, TransientFaultError
from ..mpisim.request import wait_all
from ..mpisim.transport import TRANSPORT_PACKED, TRANSPORT_ZEROCOPY, check_sends, copy_local
from ..obs.tracer import NULL_SPAN, TRACER
from ..utils.membudget import MEMORY_BUDGET
from .mapping import LocalMapping
from .packing import check_buffers_cached
from .schedule import RoundSchedule, round_protocol

#: The accepted ``backend=`` values.
BACKENDS = ("alltoallw", "p2p", "auto", "bounded")

#: Environment override for the default backend (e.g. ``DDR_BACKEND=auto``).
ENV_BACKEND = "DDR_BACKEND"

Buffers = Union[np.ndarray, Sequence[np.ndarray], None]


def check_backend(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; choose one of {sorted(BACKENDS)}")
    return name


def default_backend() -> str:
    """The process-wide default backend: ``DDR_BACKEND`` env var, else alltoallw."""
    value = os.environ.get(ENV_BACKEND)
    if value is None:
        return "alltoallw"
    try:
        return check_backend(value)
    except ValueError as exc:
        raise ValueError(f"{ENV_BACKEND}={value!r}: {exc}") from None


@dataclass
class ExchangeProgress:
    """Resumable record of one exchange: which rounds finished, what retried.

    ``execute`` returns one of these; passing it back in after a failure
    resumes the exchange, skipping every round already in ``completed``.
    Skipping is safe because a round is recorded only after *this rank*
    finished all its sends and receives for the round, and round faults are
    injected strictly at round entry — a recorded round left no partner
    half-served.
    """

    #: Round indices this rank has fully completed.
    completed: set[int] = field(default_factory=set)
    #: round index -> number of entry retries it took to get through.
    retries: dict[int, int] = field(default_factory=dict)
    #: Tag epoch this exchange's direct-round messages are stamped with.
    #: Assigned on the first ``execute`` call and *reused* on resume, so
    #: messages already in flight from the failed attempt still match.
    tag_epoch: Optional[int] = None

    def record_retry(self, round_index: int) -> None:
        self.retries[round_index] = self.retries.get(round_index, 0) + 1


def normalise_own(data_own: Buffers) -> list[np.ndarray]:
    """Accept one array, a sequence, or ``None`` for the owned-chunk buffers."""
    if data_own is None:
        return []
    if isinstance(data_own, np.ndarray):
        return [data_own]
    return list(data_own)


def execute(
    comm: Communicator,
    mapping: LocalMapping,
    data_own: Buffers,
    data_need: Optional[np.ndarray],
    backend: str = "alltoallw",
    transport: Optional[str] = None,
    progress: Optional[ExchangeProgress] = None,
) -> ExchangeProgress:
    """Redistribute: fill ``data_need`` from everyone's ``data_own``.

    Collective over ``comm`` — every rank must call with the same backend
    and transport (``None``: the process default, ``DDR_TRANSPORT``).
    ``data_own`` is one buffer per owned chunk (a single array is accepted
    for the common one-chunk case), flat or chunk-shaped but C-contiguous
    and exactly sized.  Repeat calls with the same arrays
    skip buffer revalidation (the mapping caches the accepted set) and, on
    the zero-copy transport, allocate no staging arrays at all.

    Round-entry retries follow the policy installed with the fault plan.
    ``progress`` resumes a previously failed exchange: rounds already
    in ``progress.completed`` are skipped.  The (possibly fresh)
    progress record is returned, fully populated on success.
    """
    check_backend(backend)
    mapping.check_usable(comm)
    own, need = check_buffers_cached(
        mapping.plan,
        mapping.dtype,
        normalise_own(data_own),
        data_need,
        mapping.components,
        mapping.buffer_cache,
    )
    mode = comm.resolve_transport(transport)
    if progress is None:
        progress = ExchangeProgress()
    if progress.tag_epoch is None:
        progress.tag_epoch = mapping.next_tag_epoch()
    rounds = executed_rounds(mapping, backend, mode == TRANSPORT_ZEROCOPY)
    # Tags are unique per (exchange epoch, round): a message lost from one
    # exchange can never satisfy a receive of a later one.  An executed
    # round is tagged (and enters the fault layer) as its first member; the
    # pieces of a lowered round share its tag — the mailbox is FIFO per
    # (source, tag) and a piece is fully waited before the next is posted.
    tag_base = progress.tag_epoch * max(1, mapping.nrounds)
    rank = comm.world_rank_of(comm.rank)
    traced = TRACER.enabled
    with (
        TRACER.span(
            "ddr.exchange", rank=rank, backend=backend, rounds=mapping.nrounds,
            executed=len(rounds), transport=mode,
            resumed=len(progress.completed),
        )
        if traced
        else NULL_SPAN
    ):
        for rnd in rounds:
            if progress.completed.issuperset(rnd.members):
                continue
            # The round span carries the wire protocol actually used (set by
            # _run_round once decided), the planned rounds it covers (which
            # piece of one, when lowered), lane count, and byte volumes.
            with (
                TRACER.span(
                    "ddr.round", rank=rank, round=rnd.index, members=len(rnd.members),
                    covers=list(rnd.members), backend=None,
                    lanes=len(rnd.sends) + len(rnd.recvs), nbytes=rnd.bytes_out,
                    bytes_in=rnd.bytes_in, max_partners=rnd.max_partners,
                    **({"piece": rnd.piece, "pieces": rnd.pieces} if rnd.pieces > 1 else {}),
                )
                if traced
                else NULL_SPAN
            ) as span:
                _run_round(
                    comm, rnd, *rnd.buffers(own, need), backend, mode, rank, progress,
                    tag_base + rnd.index, span,
                )
    return progress


def executed_rounds(mapping: LocalMapping, backend: str, zero_copy: bool) -> list[RoundSchedule]:
    """What :func:`execute` walks under this call's backend and budget,
    built from the mapping's rows and cached on it under what they depend on.
    ``zero_copy`` says the resolved wire is ``zerocopy``, which stages
    nothing: no cap on what one round carries."""
    cap = None if zero_copy else MEMORY_BUDGET.limit_bytes
    rounds = mapping.executed.get((backend, cap))
    if rounds is None:
        rounds = mapping.executed[backend, cap] = mapping.plan.executed(
            backend, cap, mapping.mpi_type, mapping.components, mapping.types,
        )
    return rounds


def _run_round(
    comm: Communicator,
    rnd: RoundSchedule,
    sendbuf: Any,
    need: Any,
    backend: str,
    mode: str,
    rank: int,
    progress: ExchangeProgress,
    tag: int,
    span,
) -> None:
    """One executed round through the retry harness; records completion.

    Round-entry faults (:class:`TransientFaultError` from the fault
    layer's ``on_round_start`` hook) fire before any message of the
    round is posted, so retrying here is purely local: peers never see
    a half-executed attempt and collective matching stays aligned.
    Failures *inside* a round (timeouts, corruption, crashes) are not
    collectively safe to retry and propagate unchanged.

    A lowered round enters the fault layer on its first piece and is
    recorded after its last, so retries and resume count planned rounds.
    """
    attempt = 0
    while True:
        try:
            if FAULTS.active and rnd.piece == 0:
                FAULTS.on_round_start(rank, rnd.index, attempt)
            protocol = round_protocol(backend, rnd)
            span.set(backend=protocol)
            if protocol == "alltoallw":
                comm.Alltoallw(sendbuf, rnd.sendtypes, need, rnd.recvtypes, transport=mode)
            else:
                _direct_round(comm, rnd, sendbuf, need, mode, tag)
        except TransientFaultError as exc:
            policy = FAULTS.policy
            attempt += 1
            if attempt > policy.max_retries:
                raise RetriesExhaustedError(
                    f"rank {rank} round {rnd.index}: still failing after "
                    f"{policy.max_retries} retries: {exc}"
                ) from exc
            progress.record_retry(rnd.index)
            backoff = policy.backoff_s(attempt)
            with TRACER.span(
                "fault.round_retry",
                rank=rank, round=rnd.index, attempt=attempt, backoff_s=backoff,
            ):
                time.sleep(backoff)
        else:
            if rnd.piece == rnd.pieces - 1:
                progress.completed.update(rnd.members)
            return


def _direct_round(
    comm: Communicator,
    rnd: RoundSchedule,
    sendbuf: Optional[np.ndarray],
    need: Optional[np.ndarray],
    mode: str,
    tag: int,
) -> None:
    # Rendezvous on zerocopy and shm alike (under shm an Isend stages the
    # lane eagerly instead); packed keeps its eager profile as the baseline.
    # A struct's send buffers are checked once for all the round's lanes, as
    # ``Alltoallw`` does; packed lanes pack, which checks as it goes.
    rendezvous = mode != TRANSPORT_PACKED
    if rendezvous:
        check_sends(sendbuf, rnd.sendtypes)
    if rnd.self_send is not None:
        # The data a rank keeps: a local copy, never a message.
        copy_local(
            sendbuf, rnd.self_send.datatype, need, rnd.self_recv.datatype, mode, rendezvous
        )
    # Every receive is posted before any send: a (source, executed round)
    # pair carries at most one message and the tag is unique per (exchange
    # epoch, planned round) — the pieces of a lowered round reuse it, in
    # FIFO order — so matching is exact across repeated exchanges through
    # the same mapping and no rank blocks on arrival order.
    recv_requests = [
        comm.Irecv(need, lane.peer, tag=tag, datatype=lane.datatype)
        for lane in rnd.recvs
    ]
    send_requests = [
        comm.Isend(
            sendbuf, lane.peer, tag=tag, datatype=lane.datatype, rendezvous=rendezvous,
            transport=mode, _checked=rendezvous,
        )
        for lane in rnd.sends
    ]
    wait_all(recv_requests)
    # Rendezvous sends hold the buffer live until the peer has copied;
    # the round boundary is where that guarantee must be settled.
    wait_all(send_requests)
