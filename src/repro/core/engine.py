"""Pluggable execution engines for ``DDR_ReorganizeData``.

All engines replay the same :class:`~repro.core.schedule.ExchangeSchedule`
IR and are bit-identical on the wire's *contents* (property-tested); they
differ only in how a round's lanes hit the network:

``AlltoallwEngine``
    One ``MPI_Alltoallw`` per round (paper §III-C) — the O(P) dense
    collective, with the self-transfer carried on the diagonal lane.
``P2PEngine``
    The paper's §V future work: only actual partners communicate.  Per
    round it posts every ``Irecv``, then every ``Isend`` (rendezvous on
    the zero-copy transport), then waits — no serialisation on message
    arrival order.
``AutoEngine``
    Per-round selection between the two, keyed on the plan's global
    sparsity statistic (``RoundSchedule.max_partners``).  Because that
    statistic is derived from the deterministic global plan, every rank
    picks the same protocol for a round without communicating.

The base class owns everything the engines share: staleness/communicator
validation, buffer normalisation and cached validation, transport
resolution, the per-round send-buffer selection, and — new with the fault
fabric — the reliability loop: every round runs through a retry harness
that consults the installed fault layer at round *entry* (before any
message is posted, so a local retry never desynchronises collective
matching), backs off per the :class:`~repro.faults.ReliabilityPolicy`, and
records completed rounds in an :class:`ExchangeProgress` so a failed
exchange can be resumed without re-running finished rounds.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

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
from ..mpisim.transport import TRANSPORT_PACKED
from ..obs.tracer import TRACER
from ..utils.membudget import MEMORY_BUDGET
from .box import Box
from .descriptor import DataDescriptor
from .mapping import LocalMapping
from .packing import check_buffers_cached, subarray_for
from .schedule import (
    DEFAULT_BOUNDED_CHUNK_BYTES,
    Lane,
    RoundSchedule,
    chunk_bytes_for,
    collective_preferred,
)

#: Environment override for the default backend (e.g. ``DDR_BACKEND=auto``).
ENV_BACKEND = "DDR_BACKEND"


def round_staging_estimate(rnd: RoundSchedule, zero_copy: bool) -> int:
    """The round's budget-relevant peak: the *global* worst-rank statistic
    when the schedule carries one (so every rank reaches the same verdict),
    else this rank's own estimate (cost-model schedules only)."""
    if zero_copy:
        return rnd.self_bytes
    return rnd.max_round_bytes or rnd.peak_bytes()

Buffers = Union[np.ndarray, Sequence[np.ndarray], None]


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


def mapping_from_descriptor(descriptor: DataDescriptor) -> LocalMapping:
    """The descriptor's attached mapping, or the canonical lifecycle error."""
    mapping = descriptor.plan
    if not isinstance(mapping, LocalMapping):
        raise RuntimeError(
            "DDR_SetupDataMapping must be called before DDR_ReorganizeData"
        )
    return mapping


class ExchangeEngine:
    """Base class: shared validation/staging; subclasses run one round."""

    name: str = "abstract"

    def execute(
        self,
        comm: Communicator,
        mapping: LocalMapping,
        data_own: Buffers,
        data_need: Optional[np.ndarray],
        transport: Optional[str] = None,
        reliability: Optional[ReliabilityPolicy] = None,
        progress: Optional[ExchangeProgress] = None,
    ) -> ExchangeProgress:
        """Redistribute: fill ``data_need`` from everyone's ``data_own``.

        Collective over ``comm`` — every rank must call with the same
        engine and transport.  Repeat calls with the same arrays skip
        buffer revalidation (the mapping caches the accepted set) and, on
        the zero-copy transport, allocate no staging arrays at all.

        ``reliability`` configures the round retry harness (defaults to the
        installed fault layer's policy, else ``ReliabilityPolicy()``).
        ``progress`` resumes a previously failed exchange: rounds already
        in ``progress.completed`` are skipped.  The (possibly fresh)
        progress record is returned, fully populated on success.
        """
        mapping.check_usable(comm)
        own, need = check_buffers_cached(
            mapping.plan,
            mapping.dtype,
            normalise_own(data_own),
            data_need,
            mapping.components,
            mapping.buffer_cache,
        )
        # "Direct" here means: the self-lane may copy straight between the
        # user's buffers, and P2P sends request rendezvous.  True for both
        # zerocopy and shm (the self lane never leaves the process either
        # way); a rendezvous request under shm simply degrades to an shm-
        # staged eager send inside ``Isend``.
        zero_copy = comm.resolve_transport(transport) != TRANSPORT_PACKED
        policy = reliability if reliability is not None else FAULTS.policy
        if progress is None:
            progress = ExchangeProgress()
        if progress.tag_epoch is None:
            progress.tag_epoch = mapping.next_tag_epoch()
        nrounds = max(1, len(mapping.rounds))
        rank = comm.world_rank_of(comm.rank)
        if not TRACER.enabled:
            for rnd in mapping.rounds:
                if rnd.index in progress.completed:
                    continue
                sendbuf: Optional[np.ndarray] = None
                if rnd.chunk_index is not None:
                    sendbuf = own[rnd.chunk_index]
                self._run_round_reliable(
                    comm, rnd, sendbuf, need, transport, zero_copy,
                    rank, policy, progress,
                    progress.tag_epoch * nrounds + rnd.index,
                )
            return progress
        # Traced path: one span per exchange, one per round.  The round span
        # carries the wire protocol actually used (AutoEngine's per-round
        # decision becomes visible here), lane count, and byte volumes.
        with TRACER.span(
            "ddr.exchange",
            rank=rank,
            backend=self.name,
            rounds=len(mapping.rounds),
            transport=comm.resolve_transport(transport),
            resumed=len(progress.completed),
        ):
            for rnd in mapping.rounds:
                if rnd.index in progress.completed:
                    continue
                traced_sendbuf: Optional[np.ndarray] = None
                if rnd.chunk_index is not None:
                    traced_sendbuf = own[rnd.chunk_index]
                with TRACER.span(
                    "ddr.round",
                    rank=rank,
                    round=rnd.index,
                    backend=self.round_backend(rnd),
                    lanes=len(rnd.sends) + len(rnd.recvs),
                    nbytes=rnd.bytes_out,
                    bytes_in=rnd.bytes_in,
                    max_partners=rnd.max_partners,
                ):
                    self._run_round_reliable(
                        comm, rnd, traced_sendbuf, need, transport, zero_copy,
                        rank, policy, progress,
                        progress.tag_epoch * nrounds + rnd.index,
                    )
        return progress

    def _run_round_reliable(
        self,
        comm: Communicator,
        rnd: RoundSchedule,
        sendbuf: Optional[np.ndarray],
        need: Optional[np.ndarray],
        transport: Optional[str],
        zero_copy: bool,
        rank: int,
        policy: ReliabilityPolicy,
        progress: ExchangeProgress,
        tag: int,
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
                self.run_round(comm, rnd, sendbuf, need, transport, zero_copy, tag)
            except TransientFaultError as exc:
                attempt += 1
                if attempt > policy.max_retries:
                    raise RetriesExhaustedError(
                        f"rank {rank} round {rnd.index}: still failing after "
                        f"{policy.max_retries} retries: {exc}"
                    ) from exc
                progress.record_retry(rnd.index)
                backoff = policy.backoff_s(attempt)
                if TRACER.enabled:
                    with TRACER.span(
                        "fault.round_retry",
                        rank=rank, round=rnd.index,
                        attempt=attempt, backoff_s=backoff,
                    ):
                        time.sleep(backoff)
                else:
                    time.sleep(backoff)
            else:
                progress.completed.add(rnd.index)
                return

    def round_backend(self, rnd: RoundSchedule) -> str:
        """The wire protocol this engine uses for ``rnd`` (trace attribute)."""
        return self.name

    def run_round(
        self,
        comm: Communicator,
        rnd: RoundSchedule,
        sendbuf: Optional[np.ndarray],
        need: Optional[np.ndarray],
        transport: Optional[str],
        zero_copy: bool,
        tag: Optional[int] = None,
    ) -> None:
        raise NotImplementedError

    # -- shared round primitives --------------------------------------------

    @staticmethod
    def _collective_round(
        comm: Communicator,
        rnd: RoundSchedule,
        sendbuf: Optional[np.ndarray],
        need: Optional[np.ndarray],
        transport: Optional[str],
    ) -> None:
        comm.Alltoallw(sendbuf, rnd.sendtypes(), need, rnd.recvtypes(), transport=transport)

    @staticmethod
    def _self_copy(
        rnd: RoundSchedule,
        sendbuf: Optional[np.ndarray],
        need: Optional[np.ndarray],
        zero_copy: bool,
    ) -> None:
        send = rnd.self_send
        if send is None or send.datatype is None or send.datatype.size_elements() == 0:
            return
        recv = rnd.self_recv
        assert sendbuf is not None and need is not None
        assert recv is not None and recv.datatype is not None
        if zero_copy and not np.may_share_memory(sendbuf, need):
            send.datatype.copy_into(sendbuf, need, recv.datatype)
        else:
            recv.datatype.unpack(need, send.datatype.pack(sendbuf))

    @classmethod
    def _direct_round(
        cls,
        comm: Communicator,
        rnd: RoundSchedule,
        sendbuf: Optional[np.ndarray],
        need: Optional[np.ndarray],
        zero_copy: bool,
        tag: Optional[int] = None,
    ) -> None:
        # Self-transfer first, without touching the mailbox.
        cls._self_copy(rnd, sendbuf, need, zero_copy)

        if tag is None:
            tag = rnd.index

        # Every receive is posted before any send: a (source, round) pair
        # carries at most one message (a source drains at most one chunk per
        # round) and the tag is unique per (exchange epoch, round), so
        # matching is exact across repeated exchanges through the same
        # mapping — a message lost from one exchange can never be satisfied
        # by the next one's — and no rank blocks on arrival order.
        recv_requests: list[Request] = []
        for lane in rnd.recvs:
            if lane.datatype is None or lane.datatype.size_elements() == 0:
                continue
            assert need is not None
            recv_requests.append(
                comm.Irecv(need, lane.peer, tag=tag, datatype=lane.datatype)
            )

        send_requests: list[Request] = []
        for lane in rnd.sends:
            if lane.datatype is None or lane.datatype.size_elements() == 0:
                continue
            assert sendbuf is not None
            send_requests.append(
                comm.Isend(
                    sendbuf, lane.peer, tag=tag, datatype=lane.datatype,
                    rendezvous=zero_copy,
                )
            )

        wait_all(recv_requests)
        # Rendezvous sends hold the buffer live until the peer has copied;
        # the round boundary is where that guarantee must be settled.
        wait_all(send_requests)

    # -- bounded lowering (budget-sized pieces) -------------------------------

    @staticmethod
    def _require_budget(rnd: RoundSchedule, zero_copy: bool) -> None:
        """Strict-engine preamble: refuse an over-budget round *before* any
        message is posted, with the typed error naming the way out."""
        limit = MEMORY_BUDGET.limit_bytes
        if limit is None:
            return
        estimate = round_staging_estimate(rnd, zero_copy)
        if estimate > limit:
            raise MemoryBudgetError(
                f"round {rnd.index}: estimated staging peak {estimate} bytes "
                f"exceeds the {limit}-byte DDR_MEM_BUDGET_MB budget; run the "
                "'bounded' (or 'auto') backend to lower the round into "
                "budget-sized pieces"
            )

    @staticmethod
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
            count = min(rows_per, rows - start)
            offset = list(region.offset)
            offset[axis] += start
            dims = list(region.dims)
            dims[axis] = count
            pieces.append(Box(tuple(offset), tuple(dims)))
        return pieces

    @classmethod
    def _lane_pieces(
        cls, rnd: RoundSchedule, lane: Optional[Lane], chunk_bytes: int
    ):
        """Per-piece subarray types for ``lane``, cached on the round.

        Falls back to the lane's full datatype when the geometry context is
        missing (schedules built without boxes) or the lane already fits.
        """
        if lane is None or lane.datatype is None or lane.datatype.size_elements() == 0:
            return []
        if (
            lane.region is None
            or lane.container is None
            or rnd.mpi_type is None
            or lane.nbytes <= chunk_bytes
        ):
            return [lane.datatype]
        key = (lane.container, lane.region, chunk_bytes)
        cached = rnd._piece_cache.get(key)
        if cached is None:
            cached = [
                subarray_for(lane.container, piece, rnd.mpi_type, rnd.components)
                for piece in cls._piece_regions(lane.region, lane.nbytes, chunk_bytes)
            ]
            rnd._piece_cache[key] = cached
        return cached

    @classmethod
    def _self_copy_bounded(
        cls,
        rnd: RoundSchedule,
        sendbuf: Optional[np.ndarray],
        need: Optional[np.ndarray],
        zero_copy: bool,
        chunk_bytes: int,
    ) -> None:
        """Self-transfer with the packed temporary capped at ~``chunk_bytes``."""
        send = rnd.self_send
        if send is None or send.datatype is None or send.datatype.size_elements() == 0:
            return
        recv = rnd.self_recv
        assert sendbuf is not None and need is not None
        assert recv is not None and recv.datatype is not None
        if zero_copy and not np.may_share_memory(sendbuf, need):
            send.datatype.copy_into(sendbuf, need, recv.datatype)
            return
        if (
            send.region is None
            or send.container is None
            or recv.container is None
            or rnd.mpi_type is None
            or send.nbytes <= chunk_bytes
        ):
            recv.datatype.unpack(need, send.datatype.pack(sendbuf))
            return
        send_pieces = cls._lane_pieces(rnd, send, chunk_bytes)
        recv_pieces = cls._lane_pieces(rnd, recv, chunk_bytes)
        for send_type, recv_type in zip(send_pieces, recv_pieces):
            recv_type.unpack(need, send_type.pack(sendbuf))

    @classmethod
    def _bounded_round(
        cls,
        comm: Communicator,
        rnd: RoundSchedule,
        sendbuf: Optional[np.ndarray],
        need: Optional[np.ndarray],
        zero_copy: bool,
        tag: Optional[int],
        chunk_bytes: int,
    ) -> None:
        """One round lowered into budget-sized pieces (staged sendrecv).

        Peers are walked in offset-ring order (send to ``rank + offset``,
        receive from ``rank - offset``) and each lane is re-sliced into
        pieces of at most ``chunk_bytes``.  Per piece: post the receive,
        eagerly stage the matching send, wait the receive — so at any
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
        cls._self_copy_bounded(rnd, sendbuf, need, zero_copy, chunk_bytes)

        if tag is None:
            tag = rnd.index
        rank = comm.rank
        sends_by_peer = {lane.peer: lane for lane in rnd.sends}
        recvs_by_peer = {lane.peer: lane for lane in rnd.recvs}
        for offset in range(1, rnd.nprocs):
            dest = (rank + offset) % rnd.nprocs
            src = (rank - offset) % rnd.nprocs
            send_pieces = cls._lane_pieces(rnd, sends_by_peer.get(dest), chunk_bytes)
            recv_pieces = cls._lane_pieces(rnd, recvs_by_peer.get(src), chunk_bytes)
            if not send_pieces and not recv_pieces:
                continue
            pending_sends: list[Request] = []
            for k in range(max(len(send_pieces), len(recv_pieces))):
                recv_request: Optional[Request] = None
                if k < len(recv_pieces):
                    assert need is not None
                    recv_request = comm.Irecv(
                        need, src, tag=tag, datatype=recv_pieces[k]
                    )
                if k < len(send_pieces):
                    assert sendbuf is not None
                    pending_sends.append(
                        comm.Isend(
                            sendbuf, dest, tag=tag, datatype=send_pieces[k],
                            rendezvous=False,
                        )
                    )
                if recv_request is not None:
                    recv_request.Wait()
            wait_all(pending_sends)

    @classmethod
    def _run_bounded(
        cls,
        comm: Communicator,
        rnd: RoundSchedule,
        sendbuf: Optional[np.ndarray],
        need: Optional[np.ndarray],
        zero_copy: bool,
        tag: Optional[int],
    ) -> None:
        """Bounded lowering entry point: derive the piece size from the
        static budget (all ranks agree), trace the lowering, run the round."""
        limit = MEMORY_BUDGET.limit_bytes
        chunk_bytes = (
            chunk_bytes_for(limit) if limit is not None else DEFAULT_BOUNDED_CHUNK_BYTES
        )
        if zero_copy:
            # Nothing is staged on this transport; the direct protocol is
            # already within any budget the staging model would accept.
            cls._direct_round(comm, rnd, sendbuf, need, zero_copy, tag)
            return
        if not TRACER.enabled:
            cls._bounded_round(comm, rnd, sendbuf, need, zero_copy, tag, chunk_bytes)
            return
        with TRACER.span(
            "ddr.lowering",
            rank=comm.rank,
            round=rnd.index,
            chunk_bytes=chunk_bytes,
            nbytes=rnd.bytes_out,
            bytes_in=rnd.bytes_in,
            peak_estimate=rnd.lowered_peak_bytes(chunk_bytes),
        ):
            cls._bounded_round(comm, rnd, sendbuf, need, zero_copy, tag, chunk_bytes)


class AlltoallwEngine(ExchangeEngine):
    """Dense collective backend: one ``Alltoallw`` per round (paper §III-C).

    Strict about memory: with a budget installed, an over-budget round
    raises the typed ``MemoryBudgetError`` at round entry instead of
    staging its way toward real OOM.
    """

    name = "alltoallw"

    def run_round(self, comm, rnd, sendbuf, need, transport, zero_copy, tag=None) -> None:
        self._require_budget(rnd, zero_copy)
        self._collective_round(comm, rnd, sendbuf, need, transport)


class P2PEngine(ExchangeEngine):
    """Direct-send backend (paper §V): only actual partners communicate.

    Strict about memory, like ``AlltoallwEngine``: over-budget rounds
    raise typed rather than lower.
    """

    name = "p2p"

    def run_round(self, comm, rnd, sendbuf, need, transport, zero_copy, tag=None) -> None:
        self._require_budget(rnd, zero_copy)
        self._direct_round(comm, rnd, sendbuf, need, zero_copy, tag)


class BoundedEngine(ExchangeEngine):
    """Budget-bounded backend: every staged round runs in lowered pieces.

    Trades extra per-piece handshakes for a staging footprint capped near
    half the installed budget (arXiv 2112.01075's trade, on this IR): the
    piece size comes from :func:`~repro.core.schedule.chunk_bytes_for` of
    the static limit, so all ranks lower identically with no negotiation.
    Without a budget it lowers with a fixed default piece size — bitwise
    identical output either way.
    """

    name = "bounded"

    def run_round(self, comm, rnd, sendbuf, need, transport, zero_copy, tag=None) -> None:
        self._run_bounded(comm, rnd, sendbuf, need, zero_copy, tag)


class AutoEngine(ExchangeEngine):
    """Plan-driven per-round selection: dense -> collective, sparse -> direct.

    The decision keys on ``rnd.max_partners`` — the busiest rank's partner
    count for the round, computed from the global plan at setup time — so
    all ranks agree on each round's wire protocol with no negotiation.

    With a memory budget installed the selection widens to a (time,
    peak-memory) Pareto pick over {alltoallw, p2p, bounded}, priced by the
    analytic network model: among the candidates whose modeled staging
    peak fits the budget, the fastest wins; when none fit, the
    minimum-peak bounded lowering does.  Both inputs (the global per-round
    statistics and the static limit) are identical on every rank, so the
    wire protocol still needs no negotiation.
    """

    name = "auto"

    @staticmethod
    def _pick(rnd: RoundSchedule, zero_copy: bool) -> str:
        limit = MEMORY_BUDGET.limit_bytes
        if limit is None or zero_copy:
            return (
                "alltoallw"
                if collective_preferred(rnd.max_partners, rnd.nprocs)
                else "p2p"
            )
        # Lazy: netmodel imports core at module level; core.engine must not
        # return the favour at import time.
        from ..netmodel.analytic import pareto_round_backend
        from ..netmodel.cluster import COOLEY

        return pareto_round_backend(
            COOLEY,
            nprocs=rnd.nprocs,
            max_partners=rnd.max_partners,
            max_round_bytes=round_staging_estimate(rnd, zero_copy),
            limit_bytes=limit,
        )

    def run_round(self, comm, rnd, sendbuf, need, transport, zero_copy, tag=None) -> None:
        choice = self._pick(rnd, zero_copy)
        if choice == "bounded":
            self._run_bounded(comm, rnd, sendbuf, need, zero_copy, tag)
        elif choice == "alltoallw":
            self._collective_round(comm, rnd, sendbuf, need, transport)
        else:
            self._direct_round(comm, rnd, sendbuf, need, zero_copy, tag)

    def round_backend(self, rnd: RoundSchedule) -> str:
        """Per-round choice — the trace shows which protocol auto selected."""
        return self._pick(rnd, zero_copy=False)

    @staticmethod
    def choices(mapping: LocalMapping) -> list[str]:
        """Per-round engine this mapping will route through (for inspection)."""
        return mapping.schedule.engine_choices()


ENGINES: dict[str, ExchangeEngine] = {
    engine.name: engine
    for engine in (AlltoallwEngine(), P2PEngine(), AutoEngine(), BoundedEngine())
}


def get_engine(name: str) -> ExchangeEngine:
    try:
        return ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose one of {sorted(ENGINES)}"
        ) from None


def default_backend() -> str:
    """The process-wide default engine: ``DDR_BACKEND`` env var, else alltoallw."""
    value = os.environ.get(ENV_BACKEND)
    if value is None:
        return "alltoallw"
    if value not in ENGINES:
        raise ValueError(
            f"{ENV_BACKEND}={value!r} is not a backend; choose one of {sorted(ENGINES)}"
        )
    return value
