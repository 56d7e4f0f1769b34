"""The exchange IR: what ``DDR_SetupDataMapping`` decides, written down once.

Every rank's owned chunks and needed chunk arrive as stacked int64 arrays
(:class:`Declarations`, what the set-up allgathers).  The planner
(:func:`assemble_plan`, paper §III-B/C) intersects the chunks with the needs
in broadcast passes and lays the transfers out in *rounds*: round ``c``
moves data out of every rank's chunk slot ``c``, so the number of exchange
rounds equals the maximum number of chunks owned by any rank — the
scheduling rule the paper states and quantifies in Table III.  Each overlap
becomes a pair of :class:`Lane`\\ s — a send lane on the owner, a receive
lane on the needer — but only for the ranks asked for: a rank's set-up
plans its own lanes (the paper's rank-local mapping step), while
:func:`compute_global_plan` asks for every rank:

:class:`GlobalPlan` -> one :class:`ExchangeSchedule` per rank -> one
:class:`RoundSchedule` per round -> :class:`Lane`\\ s ordered by peer

and that one structure is what the executor (:mod:`repro.core.engine`)
replays, what plan files store (:mod:`repro.core.serialize`), and what the
network cost models and the Table-III statistics read.  Planning
is pure (no communication) and lanes carry geometry only, so the full-scale
experiments (4096 chunks x 216 ranks) are scheduled without instantiating
any runtime or datatype; :meth:`ExchangeSchedule.bind` attaches the
subarray datatypes to the one rank that will execute.

Every rank's copy of a round also carries the *plan-wide* worst-rank
statistics of that round (``max_partners``, ``max_round_bytes``,
``max_lane_rows``).  They come from the overlap arrays of every rank, not
from lanes, so a rank that builds only its own lanes derives the same
*executed* schedule as every other (:func:`regroup`: which rounds run as
one, which run in pieces, each by which of the two wire protocols,
:func:`round_protocol`) without communicating.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..mpisim.datatypes import Datatype, NamedType, StructType
from .box import Box
from .packing import subarray_for

#: A round whose busiest rank talks to at least this fraction of the other
#: ranks is considered dense: the O(P) collective amortises better than
#: per-message handshakes.  Below it, direct sends win (paper §V).
AUTO_DENSITY_THRESHOLD = 0.5

#: Staging transports (packed payload copies / pooled shm segments) whose
#: round peak is modeled as every send payload plus every in-flight recv
#: payload; ``zerocopy`` stages nothing and peaks at the self-copy temp.
STAGED_TRANSPORTS = ("packed", "shm")

#: The ``backend=`` policies that run an over-budget round in pieces; the
#: other two are strict (the executor refuses the round, typed).
LOWERING_BACKENDS = ("auto", "bounded")


def collective_preferred(
    max_partners: int, nprocs: int, threshold: float = AUTO_DENSITY_THRESHOLD
) -> bool:
    """The auto-selection rule: dense rounds -> collective, sparse -> direct.

    ``max_partners`` must be a *global* per-round statistic (identical on
    every rank) so that all ranks agree on the wire protocol for the round.
    """
    if nprocs <= 1:
        return False
    return max_partners >= threshold * (nprocs - 1)


@dataclass(frozen=True)
class Lane:
    """One point-to-point transfer of one round: ``region`` (global
    coordinates) moves between this rank and ``peer``.

    ``container`` is the box of the buffer the cells live in on *this* side
    (send lanes: the owned chunk; recv lanes: the need), which is all
    :func:`regroup` needs to cut the lane into the pieces of a lowered round.
    ``datatype`` selects ``region`` out of that buffer; it is ``None`` until
    :meth:`ExchangeSchedule.bind` — cost models never materialise it.
    """

    peer: int
    nbytes: int
    container: Box
    region: Box
    datatype: Optional[Datatype] = None
    #: The planned lanes a merged (:func:`regroup`) lane carries, in round order
    #: (``container`` / ``region`` are the first part's, ``datatype`` a struct).
    parts: tuple["Lane", ...] = ()


def _in_peer_order(lanes: list[Lane], self_lane: Optional[Lane]) -> list[Lane]:
    if self_lane is None:
        return lanes
    return sorted(lanes + [self_lane], key=lambda lane: lane.peer)


def _dense_table(lanes: list[Lane], nprocs: int) -> list[Optional[Datatype]]:
    dense: list[Optional[Datatype]] = [None] * nprocs
    for lane in lanes:
        dense[lane.peer] = lane.datatype
    return dense


@dataclass
class RoundSchedule:
    """Everything one rank does in one exchange round.

    ``sends``/``recvs`` hold only *remote* lanes, ordered by peer; the
    self-transfer (data a rank keeps across the redistribution) is split
    out because it is always a local copy, never a message.
    """

    index: int
    chunk_index: Optional[int]  # which owned buffer feeds this round (None: no send)
    nprocs: int
    sends: list[Lane] = field(default_factory=list)
    recvs: list[Lane] = field(default_factory=list)
    self_send: Optional[Lane] = None
    self_recv: Optional[Lane] = None
    #: Busiest rank's partner count this round, across the *whole* plan.
    max_partners: int = 0
    #: Busiest rank's estimated staged-transport peak this round, across the
    #: *whole* plan.  Like ``max_partners`` this is identical on every rank,
    #: so budget-driven regrouping needs no communication.
    max_round_bytes: int = 0
    #: Element type the lanes were bound with (``None`` on unbound rounds).
    components: int = 1
    mpi_type: Optional[NamedType] = field(default=None, repr=False)
    #: Dense per-peer datatype tables for the Alltoallw collective (slot
    #: ``p`` = the lane to / from rank ``p``, self lane on the diagonal),
    #: built once by :meth:`ExchangeSchedule.bind` — the repeated-exchange
    #: hot path must not rebuild them per call.
    sendtypes: Optional[list[Optional[Datatype]]] = field(
        default=None, repr=False, compare=False
    )
    recvtypes: Optional[list[Optional[Datatype]]] = field(
        default=None, repr=False, compare=False
    )
    #: Planned rounds this *executed* round covers (:func:`regroup`; ``index`` first).
    members: tuple[int, ...] = ()
    #: Tallest lane of the round (rows of the slowest axis), across the
    #: *whole* plan: the most pieces :func:`regroup` can cut the round into.
    max_lane_rows: int = 1
    #: An executed round that is piece ``piece`` of ``pieces`` of a lowered
    #: planned round; ``(0, 1)`` for every other round.
    piece: int = 0
    pieces: int = 1

    def __post_init__(self) -> None:
        if not self.members:
            self.members = (self.index,)

    def buffers(self, own: Sequence[np.ndarray], need: Optional[np.ndarray]) -> tuple:
        """``(send, recv)`` buffers of this round's datatypes (struct lanes of a
        merged round: every owned chunk, and ``(need,)``)."""
        if len(self.members) > 1:
            return own, (need,)
        return (own[self.chunk_index] if self.chunk_index is not None else None), need

    def all_sends(self) -> list[Lane]:
        """Send lanes including the self lane, ordered by peer."""
        return _in_peer_order(self.sends, self.self_send)

    def all_recvs(self) -> list[Lane]:
        return _in_peer_order(self.recvs, self.self_recv)

    # -- sparsity statistics -------------------------------------------------

    @property
    def partners(self) -> int:
        """Distinct remote ranks this rank exchanges data with this round."""
        return len({lane.peer for lane in self.sends} | {lane.peer for lane in self.recvs})

    @property
    def density(self) -> float:
        """Partner count as a fraction of the possible ``P - 1`` peers."""
        if self.nprocs <= 1:
            return 0.0
        return self.partners / (self.nprocs - 1)

    @property
    def bytes_out(self) -> int:
        """Bytes this rank puts on the network this round (self excluded)."""
        return sum(lane.nbytes for lane in self.sends)

    @property
    def bytes_in(self) -> int:
        return sum(lane.nbytes for lane in self.recvs)

    @property
    def self_bytes(self) -> int:
        return self.self_send.nbytes if self.self_send is not None else 0

    @property
    def message_count(self) -> int:
        """Messages a direct round posts (one per send lane)."""
        return len(self.sends)

    # -- peak-memory accounting ----------------------------------------------

    def peak_bytes(self, transport: str = "packed") -> int:
        """Estimated per-rank staging high-water mark for this round.

        Staged transports (``packed``, ``shm``) copy every outgoing lane
        into a dense payload and hold every incoming payload until it is
        unpacked, so the worst instant is all sends staged while all recvs
        have arrived unconsumed — plus the self-transfer's packed payload,
        which exists once.  ``zerocopy`` stages nothing; only the self-copy
        may materialise a pack temporary.  User buffers are never counted:
        the budget governs library staging, not the data itself.
        """
        if transport not in STAGED_TRANSPORTS:
            return self.self_bytes
        return self.bytes_out + self.bytes_in + self.self_bytes


@dataclass
class ExchangeSchedule:
    """Everything one rank declared and must do across all rounds."""

    rank: int
    nprocs: int
    nrounds: int
    element_size: int
    rounds: list[RoundSchedule]
    own_chunks: list[Box] = field(default_factory=list)
    need: Optional[Box] = None

    @property
    def max_partners(self) -> int:
        return max((r.partners for r in self.rounds), default=0)

    @property
    def total_bytes_out(self) -> int:
        return sum(r.bytes_out for r in self.rounds)

    @property
    def total_self_bytes(self) -> int:
        return sum(r.self_bytes for r in self.rounds)

    @property
    def message_count(self) -> int:
        return sum(r.message_count for r in self.rounds)

    def bind(self, mpi_type: NamedType, components: int = 1) -> "ExchangeSchedule":
        """A copy whose lanes carry prebuilt subarray datatypes.

        The execution form — the paper's "setup once, reorganize
        repeatedly" property hinges on this happening exactly once per
        mapping.  The unbound schedule is left untouched (plans are shared
        between ranks and cached across calls).  Datatypes are immutable,
        so lanes cutting the same region out of same-shaped buffers share
        one: a round-robin stack's receive lanes differ only in depth.
        """
        types: dict[tuple, Datatype] = {}

        def typed(lane: Optional[Lane]) -> Optional[Lane]:
            if lane is None:
                return None
            container, region = lane.container, lane.region
            key = (
                container.dims,
                tuple(r - c for r, c in zip(region.offset, container.offset)),
                region.dims,
            )
            datatype = types.get(key)
            if datatype is None:
                datatype = types[key] = subarray_for(container, region, mpi_type, components)
            return Lane(lane.peer, lane.nbytes, container, region, datatype)

        rounds = []
        for rnd in self.rounds:
            bound = RoundSchedule(
                rnd.index,
                rnd.chunk_index,
                rnd.nprocs,
                [typed(lane) for lane in rnd.sends],
                [typed(lane) for lane in rnd.recvs],
                typed(rnd.self_send),
                typed(rnd.self_recv),
                rnd.max_partners,
                rnd.max_round_bytes,
                components,
                mpi_type,
                max_lane_rows=rnd.max_lane_rows,
            )
            bound.sendtypes = _dense_table(bound.all_sends(), self.nprocs)
            bound.recvtypes = _dense_table(bound.all_recvs(), self.nprocs)
            rounds.append(bound)
        return replace(self, rounds=rounds)


def round_protocol(backend: str, rnd: RoundSchedule) -> str:
    """``"alltoallw"`` or ``"p2p"``: the wire protocol the policy ``backend``
    runs the planned or executed round ``rnd`` with.

    ``alltoallw`` and ``p2p`` always run their own, ``bounded`` runs direct,
    ``auto`` applies the density rule; a piece of a lowered round runs direct.
    Every input is plan-wide, so all ranks answer alike — and this is the
    rule's one call site: :func:`regroup`, the executor, the cost models and
    ``Redistributor.engine_choices()`` all ask here.
    """
    if backend == "alltoallw":
        return backend
    if backend == "auto" and rnd.pieces == 1 and collective_preferred(
        rnd.max_partners, rnd.nprocs
    ):
        return "alltoallw"
    return "p2p"


def regroup(
    schedule: ExchangeSchedule, backend: str, limit_bytes: Optional[int] = None
) -> ExchangeSchedule:
    """The *executed* form of ``schedule`` under the policy ``backend`` and
    ``limit_bytes`` of staging per rank (``None``: nothing is staged, or no
    budget) — the planned rounds regrouped in whichever direction the limit
    asks for (arXiv 2112.01075: collectives against peak staging memory):

    - consecutive rounds of one :func:`round_protocol` *merge* while the sum
      of their ``max_round_bytes`` fits, into one round whose lane to each
      peer is the members' lanes to that peer in order — one message per
      peer, not one per chunk slot (arXiv 0706.2146: minimise a
      redistribution's step count, not its byte count);
    - a round whose own ``max_round_bytes`` exceeds the limit is, under
      :data:`LOWERING_BACKENDS`, *split* into ``k`` piece-rounds of about
      half the limit (two may be staged at once: eager sends complete at
      post time), piece ``j`` carrying rows ``[j R / k, (j + 1) R / k)`` of
      every lane's slowest axis.  Geometry is the floor: ``k`` never exceeds
      the round's tallest lane (``max_lane_rows``), and a lane with fewer
      rows sits some pieces out.  Under a strict backend the round stays
      whole, for the executor to refuse.

    Every input is the same on every rank, and both ends of a lane hold the
    same region, so all ranks draw the same groups and pieces without
    communicating.  A group of one *is* the planned round; a schedule nothing
    merges or splits in is returned as is.  The result's ``nrounds`` counts
    executed rounds; ``members`` and ``piece`` / ``pieces`` say what of the
    plan each covers.
    """
    groups: list[list[RoundSchedule]] = []
    staged, previous = 0, None
    for rnd in schedule.rounds:
        protocol = round_protocol(backend, rnd)
        staged += rnd.max_round_bytes
        if protocol == previous and (limit_bytes is None or staged <= limit_bytes):
            groups[-1].append(rnd)
        else:
            groups.append([rnd])
            staged = rnd.max_round_bytes
        previous = protocol
    lowering = limit_bytes is not None and backend in LOWERING_BACKENDS
    rounds: list[RoundSchedule] = []
    for group in groups:
        if len(group) > 1:
            rounds.append(_merged(group, schedule.rank, len(schedule.own_chunks)))
        elif lowering and group[0].max_round_bytes > limit_bytes:
            rounds.extend(_split(group[0], limit_bytes))
        else:
            rounds.append(group[0])
    if len(rounds) == len(schedule.rounds) == len(groups):
        return schedule
    return replace(schedule, nrounds=len(rounds), rounds=rounds)


def _merged(group: list[RoundSchedule], rank: int, nchunks: int) -> RoundSchedule:
    """One executed round carrying every lane of ``group``: send lanes select
    from all ``nchunks`` owned buffers, receive lanes from the one need buffer."""

    def by_peer(parts: list[tuple[int, Lane]], nbuffers: int) -> dict[int, Lane]:
        lanes: dict[int, list[tuple[int, Lane]]] = {}
        for buffer, part in parts:
            lanes.setdefault(part.peer, []).append((buffer, part))
        merged = {}
        for peer in sorted(lanes):
            members = tuple(part for _, part in lanes[peer])
            datatype = None  # unbound plans (cost models) carry geometry only
            if members[0].datatype is not None:
                datatype = StructType([(b, part.datatype) for b, part in lanes[peer]], nbuffers)
            merged[peer] = Lane(
                peer, sum(part.nbytes for part in members), members[0].container,
                members[0].region, datatype, members,
            )
        return merged

    first = group[0]
    sends = by_peer([(r.chunk_index, lane) for r in group for lane in r.all_sends()], nchunks)
    recvs = by_peer([(0, lane) for r in group for lane in r.all_recvs()], 1)
    merged = RoundSchedule(
        first.index, None, first.nprocs,
        [lane for peer, lane in sends.items() if peer != rank],
        [lane for peer, lane in recvs.items() if peer != rank],
        sends.get(rank), recvs.get(rank),
        max(r.max_partners for r in group), sum(r.max_round_bytes for r in group),
        first.components, first.mpi_type, members=tuple(r.index for r in group),
    )
    if first.sendtypes is not None:
        merged.sendtypes = _dense_table(merged.all_sends(), first.nprocs)
        merged.recvtypes = _dense_table(merged.all_recvs(), first.nprocs)
    return merged


def _split(rnd: RoundSchedule, limit_bytes: int) -> list[RoundSchedule]:
    """``rnd`` as piece-rounds of about half ``limit_bytes``, each a slab of
    every lane's slowest axis; ``rnd`` itself when no lane has a second row."""
    pieces = min(-(-rnd.max_round_bytes // max(1, limit_bytes // 2)), rnd.max_lane_rows)
    if pieces == 1:
        return [rnd]

    def slab(lane: Optional[Lane], piece: int) -> Optional[Lane]:
        if lane is None:
            return None
        rows = lane.region.dims[-1]
        lo, hi = piece * rows // pieces, (piece + 1) * rows // pieces
        if lo == hi:
            return None
        offset, dims = lane.region.offset, lane.region.dims
        region = Box(offset[:-1] + (offset[-1] + lo,), dims[:-1] + (hi - lo,))
        datatype = None  # unbound plans (cost models) carry geometry only
        if lane.datatype is not None:
            datatype = subarray_for(lane.container, region, rnd.mpi_type, rnd.components)
        return Lane(lane.peer, lane.nbytes // rows * (hi - lo), lane.container, region, datatype)

    def slabs(lanes: list[Lane], piece: int) -> list[Lane]:
        return [cut for lane in lanes if (cut := slab(lane, piece)) is not None]

    return [
        RoundSchedule(
            rnd.index, rnd.chunk_index, rnd.nprocs,
            slabs(rnd.sends, piece), slabs(rnd.recvs, piece),
            slab(rnd.self_send, piece), slab(rnd.self_recv, piece),
            rnd.max_partners, -(-rnd.max_round_bytes // pieces),
            rnd.components, rnd.mpi_type, piece=piece, pieces=pieces,
        )
        for piece in range(pieces)
    ]


@dataclass
class GlobalPlan:
    """Every rank's schedule, plus the Table-III statistics over their lanes."""

    nprocs: int
    ndims: int
    element_size: int
    nrounds: int
    schedules: list[ExchangeSchedule]

    def total_bytes_moved(self, exclude_self: bool = True) -> int:
        total = sum(s.total_bytes_out for s in self.schedules)
        if not exclude_self:
            total += sum(s.total_self_bytes for s in self.schedules)
        return total

    def mean_bytes_per_rank_per_round(self, exclude_self: bool = True) -> float:
        """Average payload each process puts on the network per round —
        the "Data Size (MB)" column of the paper's Table III."""
        if self.nrounds == 0:
            return 0.0
        return self.total_bytes_moved(exclude_self) / (self.nprocs * self.nrounds)

    def mean_bytes_per_chunk_round(self, exclude_self: bool = True) -> float:
        """Average payload per *occupied* chunk slot.

        With uneven chunk counts (e.g. 4096 images round-robin over 125
        ranks) some ranks sit out the last round;
        :meth:`mean_bytes_per_rank_per_round` averages over all P x rounds
        slots while this method averages only over slots that actually hold
        a chunk — the convention behind the paper's Table III round-robin
        column (total bytes / 4096 images).
        """
        occupied = sum(len(s.own_chunks) for s in self.schedules)
        if occupied == 0:
            return 0.0
        return self.total_bytes_moved(exclude_self) / occupied

    def max_bytes_per_rank_per_round(self, exclude_self: bool = True) -> int:
        return max(
            (
                rnd.bytes_out + (0 if exclude_self else rnd.self_bytes)
                for s in self.schedules
                for rnd in s.rounds
            ),
            default=0,
        )

    def traffic_matrix(self, round_index: Optional[int] = None) -> np.ndarray:
        """Bytes moved ``[src, dst]`` (one round, or summed over all rounds)."""
        matrix = np.zeros((self.nprocs, self.nprocs), dtype=np.int64)
        for schedule in self.schedules:
            rounds = schedule.rounds if round_index is None else [schedule.rounds[round_index]]
            for rnd in rounds:
                for lane in rnd.all_sends():
                    matrix[schedule.rank, lane.peer] += lane.nbytes
        return matrix

    def partners_per_rank(self) -> list[int]:
        """Number of distinct remote ranks each rank exchanges data with.

        Drives the paper's future-work observation that sparse patterns
        would benefit from direct sends instead of ``Alltoallw``.
        """
        return [
            len({lane.peer for rnd in s.rounds for lane in rnd.sends + rnd.recvs})
            for s in self.schedules
        ]




def declare(
    own_chunks: Sequence[Box], need: Optional[Box], ndims: int
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """One rank's declarations as the int64 arrays the set-up allgathers:
    ``(k, 2, ndims)`` ``(offset, dims)`` rows for its ``k`` chunks and
    ``(2, ndims)`` for its need (``None`` when it declares none)."""
    own = np.array([(box.offset, box.dims) for box in own_chunks], dtype=np.int64)
    own = own.reshape(len(own_chunks), 2, ndims)
    return own, None if need is None else np.array((need.offset, need.dims), dtype=np.int64)


class Declarations:
    """Every rank's declarations, stacked: what validation and planning read.

    ``chunks`` is ``(N, 2, ndims)``, every owned chunk's ``(offset, dims)``
    rank by rank in slot order; ``owner`` / ``slot`` say whose chunk and
    which slot.  ``needs`` is ``(P, 2, ndims)``, zero where ``has_need`` is
    false (the rank declared ``None``).  :class:`Box` objects are made only
    for the ranks a caller asks about (:meth:`own_boxes`, :meth:`need_box`).
    """

    def __init__(self, declared: Sequence[tuple[np.ndarray, Optional[np.ndarray]]], ndims: int):
        counts = np.array([len(own) for own, _ in declared], dtype=np.int64)
        self.ndims = ndims
        self.nprocs = len(declared)
        self.nrounds = int(counts.max(initial=0))
        self.starts = np.concatenate(([0], np.cumsum(counts)))
        self.chunks = np.concatenate([np.empty((0, 2, ndims), np.int64), *(o for o, _ in declared)])
        self.owner = np.repeat(np.arange(self.nprocs), counts)
        self.slot = np.arange(len(self.chunks)) - np.repeat(self.starts[:-1], counts)
        self.has_need = np.array([need is not None for _, need in declared], dtype=bool)
        blank = np.zeros((2, ndims), dtype=np.int64)
        needs = [blank if need is None else need for _, need in declared]
        self.needs = np.array(needs, dtype=np.int64).reshape(self.nprocs, 2, ndims)

    @classmethod
    def from_boxes(
        cls,
        owns: Sequence[Sequence[Box]],
        needs: Sequence[Optional[Box]],
        ndims: Optional[int] = None,
    ) -> "Declarations":
        """Every rank's declarations from :class:`Box` lists (``ndims``
        inferred from the boxes when not given)."""
        if len(needs) != len(owns):
            raise ValueError(f"owns has {len(owns)} ranks but needs has {len(needs)}")
        for chunks in owns:
            for box in chunks:
                ndims = ndims or box.ndim
                if box.ndim != ndims:
                    raise ValueError("all chunks must share one dimensionality")
        for need in needs:
            if need is not None:
                ndims = ndims or need.ndim
                if need.ndim != ndims:
                    raise ValueError("needs must match the chunks' dimensionality")
        if ndims is None:
            raise ValueError("cannot infer dimensionality from an empty problem")
        return cls([declare(chunks, need, ndims) for chunks, need in zip(owns, needs)], ndims)

    def own_boxes(self, rank: int) -> list[Box]:
        rows = self.chunks[self.starts[rank] : self.starts[rank + 1]].tolist()
        return [Box(tuple(offset), tuple(dims)) for offset, dims in rows]

    def need_box(self, rank: int) -> Optional[Box]:
        if not self.has_need[rank]:
            return None
        offset, dims = self.needs[rank].tolist()
        return Box(tuple(offset), tuple(dims))


class Overlaps(NamedTuple):
    """Every overlap of a plan as arrays, rows in ``(round, owner, dest)``
    order: ``lo`` / ``extent`` are ``(M, ndims)``, the rest ``(M,)``."""

    round: np.ndarray
    owner: np.ndarray
    dest: np.ndarray
    lo: np.ndarray
    extent: np.ndarray


#: Chunk x need pairs one broadcast intersection covers at most: bounds its
#: temporaries to a few MiB however many rank threads plan at once.
PAIRS_PER_PASS = 1 << 16


def intersect(decl: Declarations) -> Overlaps:
    """Every declared chunk against every non-empty need: the chunks in
    round order, as many rounds' worth per broadcast pass as
    :data:`PAIRS_PER_PASS` allows (the whole plan, on a small world), one
    axis at a time; only the pairs that meet get their overlap computed."""
    order = np.argsort(decl.slot, kind="stable")  # round by round, owners ascending
    chunk_lo = decl.chunks[order, 0]
    chunk_hi = chunk_lo + decl.chunks[order, 1]
    active = np.flatnonzero(decl.has_need & (decl.needs[:, 1] > 0).all(axis=1))
    need_lo = decl.needs[active, 0]
    need_hi = need_lo + decl.needs[active, 1]
    step = max(1, PAIRS_PER_PASS // max(1, len(active)))
    parts = []
    for start in range(0, max(1, len(order)), step):
        lo, hi = chunk_lo[start : start + step, None], chunk_hi[start : start + step, None]
        meets = np.maximum(lo[..., 0], need_lo[:, 0]) < np.minimum(hi[..., 0], need_hi[:, 0])
        for axis in range(1, decl.ndims):
            meets &= np.maximum(lo[..., axis], need_lo[:, axis]) < np.minimum(
                hi[..., axis], need_hi[:, axis]
            )
        chunk, need = np.nonzero(meets)
        parts.append((start + chunk, need))
    chunk, need = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    lo = np.maximum(chunk_lo[chunk], need_lo[need])
    extent = np.minimum(chunk_hi[chunk], need_hi[need]) - lo
    chunk = order[chunk]
    return Overlaps(decl.slot[chunk], decl.owner[chunk], active[need], lo, extent)


def _round_statistics(
    nprocs: int, nrounds: int, overlaps: Overlaps, nbytes: np.ndarray
) -> tuple[list[int], list[int], list[int]]:
    """Per round, across the whole plan: the busiest rank's partner count,
    the busiest rank's staged bytes (its sends plus its remote receives), and
    the tallest lane's rows."""
    rnd, owner, dest, _, extent = overlaps
    remote = owner != dest
    cell = rnd * nprocs  # (round, rank) cells, row-major
    size = nrounds * nprocs
    # float weights: exact while a rank stages under 2**53 bytes a round
    staged = np.bincount(cell + owner, nbytes, size) + np.bincount(
        (cell + dest)[remote], nbytes[remote], size
    )
    # Partners: remote lanes out plus in, less each peer met both ways.  Rows
    # are sorted, so the (round, owner, dest) keys are, and the reverse of a
    # lane is found by binary search.
    sender, receiver = (cell + owner)[remote], (cell + dest)[remote]
    keys = sender * nprocs + dest[remote]
    reverse = receiver * nprocs + owner[remote]
    found = np.searchsorted(keys, reverse).clip(max=len(keys) - 1)
    mutual = sender[keys[found] == reverse]
    partners = (
        np.bincount(sender, minlength=size) + np.bincount(receiver, minlength=size)
        - np.bincount(mutual, minlength=size)
    )
    rows = np.ones(nrounds, dtype=np.int64)
    np.maximum.at(rows, rnd, extent[:, -1])
    return (
        partners.reshape(nrounds, nprocs).max(axis=1, initial=0).tolist(),
        staged.reshape(nrounds, nprocs).max(axis=1, initial=0).astype(np.int64).tolist(),
        rows.tolist(),
    )


def assemble_plan(
    decl: Declarations,
    element_size: int,
    overlaps: Optional[Overlaps] = None,
    ranks: Optional[Sequence[int]] = None,
) -> list[ExchangeSchedule]:
    """Lay overlaps out as lanes — the one place the IR is written.

    ``overlaps`` defaults to :func:`intersect` of the declarations (the plan
    loader passes the ones a file lists).  The plan-wide round statistics
    come from the overlap arrays of every rank; lanes are built only where
    the owner or the destination is in ``ranks`` (default: every rank), and
    the result is those ranks' schedules, in that order.  Rows arrive in
    ``(round, owner, dest)`` order, so every lane list comes out ordered by
    peer with no sort.
    """
    nprocs, nrounds = decl.nprocs, decl.nrounds
    ranks = range(nprocs) if ranks is None else ranks
    if overlaps is None:
        overlaps = intersect(decl)
    nbytes = overlaps.extent.prod(axis=1) * element_size
    partners, staged, rows = _round_statistics(nprocs, nrounds, overlaps, nbytes)
    chunks = {r: decl.own_boxes(r) for r in ranks}
    needs = {r: decl.need_box(r) for r in ranks}
    rounds = {
        r: [
            RoundSchedule(
                c, c if c < len(chunks[r]) else None, nprocs, max_partners=partners[c],
                max_round_bytes=staged[c], max_lane_rows=rows[c],
            )
            for c in range(nrounds)
        ]
        for r in ranks
    }
    columns = (*overlaps, nbytes)
    if len(rounds) < nprocs:
        wanted = np.zeros(nprocs, dtype=bool)
        wanted[list(rounds)] = True
        keep = wanted[overlaps.owner] | wanted[overlaps.dest]
        columns = tuple(column[keep] for column in columns)
    for c, owner, dest, lo, extent, size in zip(*(column.tolist() for column in columns)):
        region = Box(tuple(lo), tuple(extent))
        if owner in rounds:
            send = Lane(dest, size, chunks[owner][c], region)
            if owner == dest:
                rounds[owner][c].self_send = send
            else:
                rounds[owner][c].sends.append(send)
        if dest in rounds:
            recv = Lane(owner, size, needs[dest], region)
            if owner == dest:
                rounds[dest][c].self_recv = recv
            else:
                rounds[dest][c].recvs.append(recv)
    return [
        ExchangeSchedule(r, nprocs, nrounds, element_size, rounds[r], chunks[r], needs[r])
        for r in ranks
    ]


def compute_global_plan(
    owns: Sequence[Sequence[Box]],
    needs: Sequence[Optional[Box]],
    element_size: int,
    ndims: Optional[int] = None,
) -> GlobalPlan:
    """Plan the exchange for all ranks.

    Parameters
    ----------
    owns:
        ``owns[r]`` is the ordered list of chunks rank ``r`` holds before
        redistribution.  Chunk slot order defines round membership.
    needs:
        ``needs[r]`` is the single contiguous box rank ``r`` requires after
        redistribution (``None`` or an empty box means it receives nothing).
    element_size:
        Bytes per element, for the byte statistics.
    """
    decl = Declarations.from_boxes(owns, needs, ndims)
    return GlobalPlan(
        decl.nprocs, decl.ndims, element_size, decl.nrounds, assemble_plan(decl, element_size)
    )
