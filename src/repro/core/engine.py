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
are strict (always that protocol; an over-budget round is refused with a
typed ``MemoryBudgetError`` before any message is posted,
:func:`check_round_budget`), ``"bounded"`` is direct and ``"auto"`` the
density rule, and those two run an over-budget round in pieces.  Everything
is decided from the plan-wide statistics the schedule carries, so every rank
decides alike without communicating; the trace attribute,
``Redistributor.engine_choices()`` and the wire all read the same executed
schedule, so they agree by construction.

Around the protocols sits everything a run relies on: staleness and
communicator validation, cached buffer validation, transport resolution,
and the reliability loop — every planned round consults the installed fault
layer at round *entry* (before any message is posted, so a local retry never
desynchronises collective matching), backs off per the
:class:`~repro.faults.ReliabilityPolicy`, and records completed rounds in an
:class:`ExchangeProgress` so a failed exchange can be resumed without
re-running finished rounds.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

import numpy as np

from ..faults.injector import FAULTS
from ..faults.policy import ReliabilityPolicy
from ..mpisim.comm import Communicator
from ..mpisim.errors import (
    MemoryBudgetError,
    RetriesExhaustedError,
    TransientFaultError,
)
from ..mpisim.request import wait_all
from ..mpisim.transport import TRANSPORT_PACKED, copy_local
from ..obs.tracer import NULL_SPAN, TRACER
from ..utils.membudget import MEMORY_BUDGET
from .mapping import LocalMapping
from .packing import check_buffers_cached
from .schedule import LOWERING_BACKENDS, RankPlan, RoundSchedule, round_protocol

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

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())

    def record_retry(self, round_index: int) -> None:
        self.retries[round_index] = self.retries.get(round_index, 0) + 1


def normalise_own(data_own: Buffers) -> list[np.ndarray]:
    """Accept one array, a sequence, or ``None`` for the owned-chunk buffers."""
    if data_own is None:
        return []
    if isinstance(data_own, np.ndarray):
        return [data_own]
    return list(data_own)


def direct_transport(comm: Communicator, transport: Optional[str]) -> bool:
    """Whether the self-lane may copy straight between the user's buffers
    and direct sends request rendezvous.  True for both zerocopy and shm
    (the self lane never leaves the process either way); a rendezvous
    request under shm simply degrades to an shm-staged eager send inside
    ``Isend``."""
    return comm.resolve_transport(transport) != TRANSPORT_PACKED


def check_round_budget(backend: str, plan: RankPlan, index: int, zero_copy: bool) -> None:
    """The strict backends' refusal of planned round ``index``, raised before
    any message of it is posted.

    The staged estimate is plan-wide (every rank refuses alike, and
    :func:`~repro.core.schedule.executed_groups` leaves such a round on its
    own); a direct transport stages only the self-copy, so there the refusal
    is rank-local and must not move a group boundary.
    """
    limit = MEMORY_BUDGET.limit_bytes
    if limit is None or backend in LOWERING_BACKENDS:
        return
    estimate = plan.self_bytes[index] if zero_copy else plan.staged[index]
    if estimate > limit:
        raise MemoryBudgetError(
            f"round {index}: estimated staging peak {estimate} bytes "
            f"exceeds the {limit}-byte DDR_MEM_BUDGET_MB budget; run the "
            "'bounded' (or 'auto') backend to lower the round into "
            "budget-sized pieces"
        )


def execute(
    comm: Communicator,
    mapping: LocalMapping,
    data_own: Buffers,
    data_need: Optional[np.ndarray],
    backend: str = "alltoallw",
    transport: Optional[str] = None,
    reliability: Optional[ReliabilityPolicy] = None,
    progress: Optional[ExchangeProgress] = None,
) -> ExchangeProgress:
    """Redistribute: fill ``data_need`` from everyone's ``data_own``.

    Collective over ``comm`` — every rank must call with the same backend
    and transport.  ``data_own`` is one buffer per owned chunk (a single
    array is accepted for the common one-chunk case), flat or chunk-shaped
    but C-contiguous and exactly sized.  Repeat calls with the same arrays
    skip buffer revalidation (the mapping caches the accepted set) and, on
    the zero-copy transport, allocate no staging arrays at all.

    ``reliability`` configures the round retry harness (defaults to the
    installed fault layer's policy, else ``ReliabilityPolicy()``).
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
    zero_copy = direct_transport(comm, transport)
    policy = reliability if reliability is not None else FAULTS.policy
    if progress is None:
        progress = ExchangeProgress()
    if progress.tag_epoch is None:
        progress.tag_epoch = mapping.next_tag_epoch()
    rounds = executed_rounds(mapping, backend, zero_copy)
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
            executed=len(rounds), transport=comm.resolve_transport(transport),
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
                    comm, rnd, mapping.plan, *rnd.buffers(own, need), backend, transport,
                    zero_copy, rank, policy, progress, tag_base + rnd.index, span,
                )
    return progress


def executed_rounds(mapping: LocalMapping, backend: str, zero_copy: bool) -> list[RoundSchedule]:
    """What :func:`execute` walks under this call's backend and budget,
    built from the mapping's rows and cached on it under what they depend on."""
    limit = MEMORY_BUDGET.limit_bytes
    key = (backend, limit, zero_copy)
    rounds = mapping.executed.get(key)
    if rounds is None:
        # A direct transport stages nothing: no cap on what one round carries.
        rounds = mapping.executed[key] = mapping.plan.executed(
            backend, None if zero_copy else limit, mapping.mpi_type, mapping.components,
            mapping.types,
        )
    return rounds


def _run_round(
    comm: Communicator,
    rnd: RoundSchedule,
    plan: RankPlan,
    sendbuf: Any,
    need: Any,
    backend: str,
    transport: Optional[str],
    zero_copy: bool,
    rank: int,
    policy: ReliabilityPolicy,
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
            for index in rnd.members:
                check_round_budget(backend, plan, index, zero_copy)
            protocol = round_protocol(backend, rnd)
            span.set(backend=protocol)
            if protocol == "alltoallw":
                comm.Alltoallw(
                    sendbuf, rnd.sendtypes, need, rnd.recvtypes, transport=transport
                )
            else:
                _direct_round(comm, rnd, sendbuf, need, zero_copy, tag)
        except TransientFaultError as exc:
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
    zero_copy: bool,
    tag: int,
) -> None:
    if rnd.self_send is not None:
        # The data a rank keeps: a local copy, never a message.
        copy_local(
            sendbuf, rnd.self_send.datatype, need, rnd.self_recv.datatype, zero_copy
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
            sendbuf, lane.peer, tag=tag, datatype=lane.datatype, rendezvous=zero_copy
        )
        for lane in rnd.sends
    ]
    wait_all(recv_requests)
    # Rendezvous sends hold the buffer live until the peer has copied;
    # the round boundary is where that guarantee must be settled.
    wait_all(send_requests)
