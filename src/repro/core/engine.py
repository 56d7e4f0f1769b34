"""The executor behind ``DDR_ReorganizeData``: replay one rank's schedule.

:func:`execute` walks the rounds of a bound
:class:`~repro.core.schedule.ExchangeSchedule` and puts each round's lanes
on the wire.  *How* a round hits the wire is decided in exactly one place,
:func:`round_protocol`, which maps ``(backend, round, transport class)`` to
one of three protocols — bit-identical in what they deliver
(property-tested), different only in messages and staging:

``alltoallw``
    One ``MPI_Alltoallw`` (paper §III-C) — the O(P) dense collective, with
    the self-transfer carried on the diagonal lane.
``p2p``
    The paper's §V future work: only actual partners communicate.  Every
    ``Irecv`` is posted, then every ``Isend`` (rendezvous on the zero-copy
    transport), then both are waited — no serialisation on arrival order.
``bounded``
    The round lowered into budget-sized pieces (arXiv 2112.01075's trade:
    extra handshakes for a staging footprint capped near half the budget).

The four ``backend=`` values are policies over those protocols:
``"alltoallw"`` and ``"p2p"`` are strict (always that protocol; an
over-budget round is refused with a typed ``MemoryBudgetError`` before any
message is posted), ``"bounded"`` lowers every staged round, and ``"auto"``
picks per round from the plan-wide statistics the schedule carries — so
every rank picks the same protocol without communicating.  The trace
attribute, ``Redistributor.engine_choices()`` and the wire all read
:func:`round_protocol`, so they agree by construction.

Around the protocols sits everything a run relies on: staleness and
communicator validation, cached buffer validation, transport resolution,
and the reliability loop — every round consults the installed fault layer
at round *entry* (before any message is posted, so a local retry never
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
from ..mpisim.request import Request, wait_all
from ..mpisim.transport import TRANSPORT_PACKED, copy_local
from ..obs.tracer import NULL_SPAN, TRACER
from ..utils.membudget import MEMORY_BUDGET
from .box import Box
from .mapping import LocalMapping
from .packing import check_buffers_cached, subarray_for
from .schedule import (
    DEFAULT_BOUNDED_CHUNK_BYTES,
    Lane,
    RoundSchedule,
    chunk_bytes_for,
    coalesce,
    collective_preferred,
)

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
    if value not in BACKENDS:
        raise ValueError(
            f"{ENV_BACKEND}={value!r} is not a backend; choose one of {sorted(BACKENDS)}"
        )
    return value


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


def round_protocol(backend: str, rnd: RoundSchedule, zero_copy: bool) -> str:
    """The wire protocol ``backend`` runs ``rnd`` with: alltoallw | p2p | bounded.

    Every input is a plan-wide round statistic (identical on all ranks), the
    static budget limit, or the transport class, so all ranks reach the same
    verdict with no negotiation — including the strict backends' refusal,
    raised here, before any message of the round is posted.
    """
    limit = MEMORY_BUDGET.limit_bytes
    if backend == "bounded":
        # Nothing is staged on a direct transport; plain direct sends are
        # already within any budget the staging model would accept.
        return "p2p" if zero_copy else "bounded"
    if backend == "auto":
        # The density rule, lowered only when the round's staged estimate —
        # the one the strict backends refuse on — would not fit the budget.
        if limit is not None and not zero_copy and rnd.max_round_bytes > limit:
            return "bounded"
        dense = collective_preferred(rnd.max_partners, rnd.nprocs)
        return "alltoallw" if dense else "p2p"
    if limit is not None:
        estimate = rnd.self_bytes if zero_copy else rnd.max_round_bytes
        if estimate > limit:
            raise MemoryBudgetError(
                f"round {rnd.index}: estimated staging peak {estimate} bytes "
                f"exceeds the {limit}-byte DDR_MEM_BUDGET_MB budget; run the "
                "'bounded' (or 'auto') backend to lower the round into "
                "budget-sized pieces"
            )
    return backend


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
        mapping.schedule,
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
    planned = mapping.rounds
    rounds = _executed_rounds(mapping, backend, zero_copy)
    # Tags are unique per (exchange epoch, round): a message lost from one
    # exchange can never satisfy a receive of a later one.  An executed
    # round is tagged (and enters the fault layer) as its first member.
    tag_base = progress.tag_epoch * max(1, len(planned))
    rank = comm.world_rank_of(comm.rank)
    traced = TRACER.enabled
    with (
        TRACER.span(
            "ddr.exchange", rank=rank, backend=backend, rounds=len(planned),
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
            # _run_round once decided), the planned rounds it covers, lane
            # count, and byte volumes.
            with (
                TRACER.span(
                    "ddr.round", rank=rank, round=rnd.index, members=len(rnd.members),
                    covers=list(rnd.members), backend=None,
                    lanes=len(rnd.sends) + len(rnd.recvs), nbytes=rnd.bytes_out,
                    bytes_in=rnd.bytes_in, max_partners=rnd.max_partners,
                )
                if traced
                else NULL_SPAN
            ) as span:
                _run_round(
                    comm, rnd, planned, *rnd.buffers(own, need), backend, transport,
                    zero_copy, rank, policy, progress, tag_base + rnd.index, span,
                )
    return progress


def _executed_rounds(mapping: LocalMapping, backend: str, zero_copy: bool) -> list[RoundSchedule]:
    """What :func:`execute` walks: the planned rounds coalesced under this
    call's verdicts and budget, cached on the mapping under what it depends on."""
    limit = MEMORY_BUDGET.limit_bytes
    key = (backend, limit, zero_copy)
    rounds = mapping.executed.get(key)
    if rounds is None:
        verdicts = [_mergeable(backend, rnd, zero_copy) for rnd in mapping.rounds]
        # A direct transport stages nothing: no cap on what one round carries.
        rounds = coalesce(mapping.schedule, verdicts, None if zero_copy else limit).rounds
        mapping.executed[key] = rounds
    return rounds


def _mergeable(backend: str, rnd: RoundSchedule, zero_copy: bool) -> Optional[str]:
    """``rnd``'s protocol as every rank sees it; ``None`` for a round that runs
    on its own (``bounded``, or refused for its staged estimate).  A direct
    transport's refusal is rank-local: :func:`_run_round` refuses the group."""
    try:
        protocol = round_protocol(backend, rnd, zero_copy)
    except MemoryBudgetError:
        return backend if zero_copy else None
    return None if protocol == "bounded" else protocol


def _run_round(
    comm: Communicator,
    rnd: RoundSchedule,
    planned: list[RoundSchedule],
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
    """One round through the retry harness; records completion.

    Round-entry faults (:class:`TransientFaultError` from the fault
    layer's ``on_round_start`` hook) fire before any message of the
    round is posted, so retrying here is purely local: peers never see
    a half-executed attempt and collective matching stays aligned.
    Failures *inside* a round (timeouts, corruption, crashes) are not
    collectively safe to retry and propagate unchanged.
    """
    attempt = 0
    while True:
        try:
            if FAULTS.active:
                FAULTS.on_round_start(rank, rnd.index, attempt)
            # Members share one verdict; a strict refusal of any is raised here.
            for index in rnd.members:
                protocol = round_protocol(backend, planned[index], zero_copy)
            span.set(backend=protocol)
            if protocol == "alltoallw":
                comm.Alltoallw(
                    sendbuf, rnd.sendtypes, need, rnd.recvtypes, transport=transport
                )
            elif protocol == "p2p":
                _direct_round(comm, rnd, sendbuf, need, zero_copy, tag)
            else:
                _bounded_round(comm, rnd, sendbuf, need, tag)
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
            progress.completed.update(rnd.members)
            return


# -- the protocols' shared pieces -----------------------------------------------


def _piece_regions(region: Box, nbytes: int, chunk_bytes: int) -> list[Box]:
    """Split ``region`` into row-slices of at most ``chunk_bytes`` along
    the slowest-varying axis (paper order: ``dims[-1]``).

    A pure function of ``(region, chunk_bytes)`` — the sender and the
    receiver of a lane hold the same overlap box and the same static
    budget limit, so both derive the identical piece sequence without
    communicating.  A single row larger than ``chunk_bytes`` stays one
    piece (the floor of what row-slicing can do).
    """
    rows = region.dims[-1]
    if rows <= 1 or nbytes <= chunk_bytes:
        return [region]
    row_bytes = max(1, nbytes // rows)
    rows_per = max(1, chunk_bytes // row_bytes)
    axis = region.ndim - 1
    pieces: list[Box] = []
    for start in range(0, rows, rows_per):
        offset = list(region.offset)
        offset[axis] += start
        dims = list(region.dims)
        dims[axis] = min(rows_per, rows - start)
        pieces.append(Box(tuple(offset), tuple(dims)))
    return pieces


def _lane_pieces(rnd: RoundSchedule, lane: Optional[Lane], chunk_bytes: int):
    """Per-piece subarray types for ``lane``, cached on the round; the
    lane's own datatype when it already fits."""
    if lane is None:
        return []
    if lane.nbytes <= chunk_bytes:
        return [lane.datatype]
    key = (lane.container, lane.region, chunk_bytes)
    cached = rnd.piece_cache.get(key)
    if cached is None:
        cached = [
            subarray_for(lane.container, piece, rnd.mpi_type, rnd.components)
            for piece in _piece_regions(lane.region, lane.nbytes, chunk_bytes)
        ]
        rnd.piece_cache[key] = cached
    return cached


def _self_copy(
    rnd: RoundSchedule,
    sendbuf: Optional[np.ndarray],
    need: Optional[np.ndarray],
    zero_copy: bool,
    chunk_bytes: int = 0,
) -> None:
    """The data a rank keeps: a local copy, never a message.  With
    ``chunk_bytes`` the packed temporary is capped at about that size."""
    send, recv = rnd.self_send, rnd.self_recv
    if send is None:
        return
    if not chunk_bytes or send.nbytes <= chunk_bytes:
        copy_local(sendbuf, send.datatype, need, recv.datatype, zero_copy)
    else:
        for send_type, recv_type in zip(
            _lane_pieces(rnd, send, chunk_bytes), _lane_pieces(rnd, recv, chunk_bytes)
        ):
            recv_type.unpack(need, send_type.pack(sendbuf))


def _direct_round(
    comm: Communicator,
    rnd: RoundSchedule,
    sendbuf: Optional[np.ndarray],
    need: Optional[np.ndarray],
    zero_copy: bool,
    tag: int,
) -> None:
    _self_copy(rnd, sendbuf, need, zero_copy)
    # Every receive is posted before any send: a (source, round) pair
    # carries at most one message (a source drains at most one chunk per
    # round) and the tag is unique per (exchange epoch, round), so matching
    # is exact across repeated exchanges through the same mapping and no
    # rank blocks on arrival order.
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


def _bounded_round(
    comm: Communicator,
    rnd: RoundSchedule,
    sendbuf: Optional[np.ndarray],
    need: Optional[np.ndarray],
    tag: int,
) -> None:
    """One round lowered into budget-sized pieces (staged sendrecv).

    The piece size comes from the static budget (all ranks agree), or a
    fixed default without one.  Peers are walked in offset-ring order (send
    to ``rank + offset``, receive from ``rank - offset``) and each lane is
    re-sliced into pieces of at most ``chunk_bytes``.  Per piece: post the
    receive, eagerly stage the matching send, wait the receive — so at any
    instant only a bounded handful of pieces is resident instead of the
    whole round's footprint.

    Deadlock-free by induction on the global ``(offset, piece)`` order:
    every rank posts its piece-``k`` send (eager — never blocks) before
    waiting its piece-``k`` receive, and the two ends of a lane derive
    identical piece counts from the same overlap box and static budget,
    so the minimal blocked rank's awaited piece has always already been
    posted.  Pieces of one lane share the round tag; the mailbox is
    FIFO per (source, tag), so they arrive and match in order.
    """
    limit = MEMORY_BUDGET.limit_bytes
    chunk_bytes = chunk_bytes_for(limit) if limit is not None else DEFAULT_BOUNDED_CHUNK_BYTES
    rank = comm.rank
    with (
        TRACER.span(
            "ddr.lowering",
            rank=rank,
            round=rnd.index,
            chunk_bytes=chunk_bytes,
            nbytes=rnd.bytes_out,
            bytes_in=rnd.bytes_in,
            peak_estimate=rnd.lowered_peak_bytes(chunk_bytes),
        )
        if TRACER.enabled
        else NULL_SPAN
    ):
        _self_copy(rnd, sendbuf, need, False, chunk_bytes)
        sends_by_peer = {lane.peer: lane for lane in rnd.sends}
        recvs_by_peer = {lane.peer: lane for lane in rnd.recvs}
        for offset in range(1, rnd.nprocs):
            dest = (rank + offset) % rnd.nprocs
            src = (rank - offset) % rnd.nprocs
            send_pieces = _lane_pieces(rnd, sends_by_peer.get(dest), chunk_bytes)
            recv_pieces = _lane_pieces(rnd, recvs_by_peer.get(src), chunk_bytes)
            pending_sends: list[Request] = []
            for k in range(max(len(send_pieces), len(recv_pieces))):
                recv_request: Optional[Request] = None
                if k < len(recv_pieces):
                    recv_request = comm.Irecv(need, src, tag=tag, datatype=recv_pieces[k])
                if k < len(send_pieces):
                    pending_sends.append(
                        comm.Isend(
                            sendbuf, dest, tag=tag, datatype=send_pieces[k],
                            rendezvous=False,
                        )
                    )
                if recv_request is not None:
                    recv_request.Wait()
            wait_all(pending_sends)
