"""The exchange IR: what ``DDR_SetupDataMapping`` decides, written down once.

Every rank's owned chunks and needed chunk arrive as stacked int64 arrays
(:class:`Declarations`, what the set-up allgathers).  The planner
(:func:`intersect`, paper §III-B/C) intersects the chunks with the needs in
broadcast passes and lays the transfers out in *rounds*: round ``c`` moves
data out of every rank's chunk slot ``c``, so the number of exchange rounds
equals the maximum number of chunks owned by any rank — the scheduling rule
the paper states and quantifies in Table III.  Each overlap is a row
(:class:`Overlaps`), a send on its owner and a receive on its needer, and
the rows are the only plan IR: a whole plan (:class:`GlobalPlan`) is the
declarations plus every row, whose Table-III statistics and per-round
:class:`RoundTable` (what the cost model prices) are array
reductions over them; a rank's set-up keeps only its own rows
(:class:`RankPlan`).

The plan-wide per-round statistics (``max_partners``, ``max_round_bytes``,
``max_lane_rows``) come from every rank's rows, so every rank draws the
same *executed* rounds (:func:`executed_groups`: which rounds run as one,
which in pieces, each by which of the two wire protocols,
:func:`round_protocol`) without communicating.  :meth:`RankPlan.executed`
alone builds them (:class:`RoundSchedule` -> :class:`Lane`\\ s ordered by
peer, with datatypes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..mpisim.datatypes import Datatype, NamedType, StructType
from .box import Box
from .packing import subarray_type

#: A round whose busiest rank talks to at least this fraction of the other
#: ranks is considered dense: the O(P) collective amortises better than
#: per-message handshakes.  Below it, direct sends win (paper §V).
AUTO_DENSITY_THRESHOLD = 0.5


def collective_preferred(max_partners: int, nprocs: int) -> bool:
    """The auto-selection rule: dense rounds -> collective, sparse -> direct.

    ``max_partners`` must be a *global* per-round statistic (identical on
    every rank) so that all ranks agree on the wire protocol for the round.
    """
    if nprocs <= 1:
        return False
    return max_partners >= AUTO_DENSITY_THRESHOLD * (nprocs - 1)


@dataclass(frozen=True)
class Lane:
    """One point-to-point transfer of one executed round: ``nbytes`` move
    between this rank and ``peer``, selected by ``datatype``."""

    peer: int
    nbytes: int
    datatype: Optional[Datatype] = None


def _dense_table(lanes: list[Lane], nprocs: int) -> list[Optional[Datatype]]:
    dense: list[Optional[Datatype]] = [None] * nprocs
    for lane in lanes:
        dense[lane.peer] = lane.datatype
    return dense


@dataclass
class RoundSchedule:
    """Everything one rank does in one *executed* round
    (:meth:`RankPlan.executed` builds them).

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
    #: *whole* plan.  Like ``max_partners`` this is identical on every rank.
    max_round_bytes: int = 0
    #: Dense per-peer datatype tables for the Alltoallw collective (slot
    #: ``p`` = the lane to / from rank ``p``, self lane on the diagonal),
    #: built with the round — the repeated-exchange hot path must not
    #: rebuild them per call.
    sendtypes: Optional[list[Optional[Datatype]]] = field(
        default=None, repr=False, compare=False
    )
    recvtypes: Optional[list[Optional[Datatype]]] = field(
        default=None, repr=False, compare=False
    )
    #: Planned rounds this executed round covers (``index`` first).
    members: tuple[int, ...] = ()
    #: An executed round that is piece ``piece`` of ``pieces`` of a lowered
    #: planned round; ``(0, 1)`` for every other round.
    piece: int = 0
    pieces: int = 1

    def __post_init__(self) -> None:
        if not self.members:
            self.members = (self.index,)

    def buffers(self, own: Sequence[np.ndarray], need: Optional[np.ndarray]) -> tuple:
        """``(send, recv)`` buffers of this round's datatypes (the send lanes of
        a merged round are structs over every owned chunk)."""
        if len(self.members) > 1:
            return own, need
        return (own[self.chunk_index] if self.chunk_index is not None else None), need

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


def round_protocol(backend: str, rnd: RoundSchedule) -> str:
    """``"alltoallw"`` or ``"p2p"``: the wire protocol the policy ``backend``
    runs the executed round ``rnd`` with (:func:`_protocol`)."""
    return _protocol(backend, rnd.max_partners, rnd.nprocs)


def _protocol(backend: str, max_partners: int, nprocs: int) -> str:
    """``alltoallw`` and ``p2p`` run their own, ``auto`` the density rule;
    ``bounded`` is another name for ``p2p``.  Every input is plan-wide, so
    all ranks answer alike."""
    if backend == "alltoallw":
        return backend
    if backend == "auto" and collective_preferred(max_partners, nprocs):
        return "alltoallw"
    return "p2p"


def executed_groups(
    backend: str,
    nprocs: int,
    partners: Sequence[int],
    staged: Sequence[int],
    rows: Sequence[int],
    limit_bytes: Optional[int] = None,
) -> list[tuple[tuple[int, ...], int]]:
    """The grouping rule, the one place it is written: ``(members, pieces)``
    per executed round, from the plan-wide per-round ``max_partners`` /
    ``max_round_bytes`` / ``max_lane_rows``, under the policy ``backend``
    and ``limit_bytes`` of staging per rank (``None``: nothing is staged, or
    no budget; arXiv 2112.01075: collectives against peak staging memory):

    - consecutive rounds of one :func:`round_protocol` *merge* while the sum
      of their staged bytes fits: one message per peer, not one per chunk
      slot (arXiv 0706.2146: minimise a redistribution's step count);
    - a round whose own staged bytes exceed the limit is, under every
      policy, *split* into ``k`` piece-rounds of about half the limit (eager
      sends complete at post time, so two may be staged at once), piece
      ``j`` carrying rows ``[j R / k, (j + 1) R / k)`` of every lane's
      slowest axis, by the round's own protocol.  ``k`` never exceeds the
      round's tallest lane; a shorter lane sits some pieces out.

    Every input is the same on every rank, so all ranks draw the same
    groups without communicating; :meth:`RankPlan.executed` builds them.
    """
    groups: list[list[int]] = []
    total, previous = 0, None
    for index, (busiest, size) in enumerate(zip(partners, staged)):
        protocol = _protocol(backend, busiest, nprocs)
        total += size
        if protocol == previous and (limit_bytes is None or total <= limit_bytes):
            groups[-1].append(index)
        else:
            groups.append([index])
            total = size
        previous = protocol
    return [
        (
            tuple(group),
            min(-(-staged[group[0]] // max(1, limit_bytes // 2)), rows[group[0]])
            if limit_bytes is not None and len(group) == 1 and staged[group[0]] > limit_bytes
            else 1,
        )
        for group in groups
    ]


def _slab(part: tuple, piece: int, pieces: int) -> Optional[tuple]:
    """Piece ``piece`` of ``pieces`` of the overlap ``(lo, extent, nbytes)``:
    a slab of its slowest axis, or ``None`` when the part sits it out."""
    lo, extent, nbytes = part
    rows = extent[-1]
    first, stop = piece * rows // pieces, (piece + 1) * rows // pieces
    if first == stop:
        return None
    return (
        (*lo[:-1], lo[-1] + first), (*extent[:-1], stop - first), nbytes // rows * (stop - first)
    )


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
    false (the rank declared ``None``).
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


def _step(before: tuple, after: tuple) -> Optional[tuple[int, int]]:
    """``(axis, step)`` when overlap row ``after`` can follow ``before`` in one
    stepped subarray: one extent, ``lo`` moved along exactly one axis, by the
    extent there (the parts abut) or by any positive step over extent 1."""
    lo, extent, then, shape = before[2], before[3], after[2], after[3]
    moved = [b - a for a, b in zip(lo, then)]
    if shape != extent or moved.count(0) != len(moved) - 1:
        return None
    step = sum(moved)
    axis = moved.index(step)
    return (axis, step) if step == extent[axis] or (extent[axis] == 1 and step > 0) else None


def _runs(parts: list[tuple]) -> list[tuple[int, Optional[tuple[int, int, int]]]]:
    """A merged lane's parts (overlap rows, in round order) cut into maximal
    runs of :func:`_step`\\ s of one ``(axis, step)``: ``(first part,
    (count, axis, step))`` each, ``None`` for a run of one part.  Parts that
    form one regular run (every lane of a round-robin load) are recognised
    whole, without a :func:`_step` per part (:func:`_runs_by_part`)."""
    if len(parts) > 2 and (move := _step(parts[0], parts[1])) is not None:
        axis, step = move
        lo, extent = parts[0][2], parts[0][3]
        head, start, tail = lo[:axis], lo[axis], lo[axis + 1:]
        if all(part[3] == extent for part in parts) and [part[2] for part in parts] == [
            (*head, start + k * step, *tail) for k in range(len(parts))
        ]:
            return [(0, (len(parts), axis, step))]
    return _runs_by_part(parts)


def _runs_by_part(parts: list[tuple]) -> list[tuple[int, Optional[tuple[int, int, int]]]]:
    """:func:`_runs`, one :func:`_step` per part."""
    runs, first = [], 0
    while first < len(parts):
        stop, move = first + 1, None
        while stop < len(parts):
            step = _step(parts[stop - 1], parts[stop])
            if step is None or move not in (None, step):
                break
            move, stop = step, stop + 1
        runs.append((first, None if move is None else (stop - first, *move)))
        first = stop
    return runs


@dataclass
class RankPlan:
    """One rank's share of a plan, as arrays: what set-up keeps.

    ``own`` / ``need`` are its declarations (``(offset, dims)`` rows; ``need``
    ``None`` when it declared none), ``sends`` / ``recvs`` the overlap rows
    it owns / needs in ``(round, peer)`` order, and ``partners`` / ``staged``
    / ``rows`` the plan-wide per-round statistics every rank holds alike.
    """

    rank: int
    nprocs: int
    nrounds: int
    element_size: int
    own: np.ndarray
    need: Optional[np.ndarray]
    partners: list[int]
    staged: list[int]
    rows: list[int]
    sends: Overlaps
    recvs: Overlaps

    def own_boxes(self) -> list[Box]:
        return [Box(tuple(offset), tuple(dims)) for offset, dims in self.own.tolist()]

    def need_box(self) -> Optional[Box]:
        return None if self.need is None else Box(*map(tuple, self.need.tolist()))

    def lanes(self, side: str, within: bool = False) -> list[tuple]:
        """``(round, peer, lo, extent, nbytes)`` per send or recv row, ``lo``
        global or (``within``) from the origin of the owned chunk / need."""
        rows = self.sends if side == "send" else self.recvs
        lo = rows.lo
        if within and len(lo):
            lo = lo - (self.own[rows.round, 0] if side == "send" else self.need[0])
        return list(zip(
            rows.round.tolist(), (rows.dest if side == "send" else rows.owner).tolist(),
            map(tuple, lo.tolist()), map(tuple, rows.extent.tolist()),
            (rows.extent.prod(axis=1) * self.element_size).tolist(),
        ))

    def executed(
        self,
        backend: str,
        limit_bytes: Optional[int],
        mpi_type: NamedType,
        components: int,
        types: dict,
    ) -> list[RoundSchedule]:
        """The rounds :func:`executed_groups` draws for ``backend`` and
        ``limit_bytes``, with their datatypes, straight from the rows.

        A lane of one part is one subarray type, a merged receive lane one
        stepped subarray per run of its parts (:func:`_runs`; a struct of them
        if irregular), a merged send lane a struct over every owned chunk.
        ``types`` memoises datatypes by geometry across calls.
        """
        own = list(map(tuple, self.own[:, 1].tolist()))
        need = None if self.need is None else tuple(self.need[1].tolist())

        def memo(key: tuple, build, *args) -> Datatype:
            if key not in types:
                types[key] = build(*args)
            return types[key]

        def subarray(dims: tuple, starts: tuple, extent: tuple, steps=None) -> Datatype:
            key = (dims, starts, extent, steps)
            return memo(key, subarray_type, mpi_type, *key[:3], components, steps)

        def lanes(rows: list[tuple], sending: bool, merged: bool) -> list[Lane]:
            out = []
            for peer, parts in groupby(sorted(rows, key=itemgetter(1)), itemgetter(1)):
                parts = list(parts)
                if sending and merged:
                    # one look-up per distinct member geometry, not one per part
                    geometries = [(own[c], lo, ext) for c, _, lo, ext, _ in parts]
                    found = {key: subarray(*key) for key in dict.fromkeys(geometries)}
                    members = tuple(zip(map(itemgetter(0), parts), map(found.get, geometries)))
                    datatype = memo((len(own), members), StructType, members, len(own))
                elif sending:
                    datatype = subarray(own[parts[0][0]], parts[0][2], parts[0][3])
                else:
                    runs = tuple(
                        (0, subarray(need, parts[first][2], parts[first][3], steps))
                        for first, steps in _runs(parts)
                    )
                    one = len(runs) == 1
                    datatype = runs[0][1] if one else memo((1, runs), StructType, runs, 1)
                out.append(Lane(peer, sum(map(itemgetter(4), parts)), datatype))
            return out

        def executed_round(send_rows, recv_rows, index, merged=False, **stats) -> RoundSchedule:
            sends, recvs = lanes(send_rows, True, merged), lanes(recv_rows, False, merged)
            rnd = RoundSchedule(
                index, None if merged or index >= len(own) else index, self.nprocs,
                [lane for lane in sends if lane.peer != self.rank],
                [lane for lane in recvs if lane.peer != self.rank],
                next((lane for lane in sends if lane.peer == self.rank), None),
                next((lane for lane in recvs if lane.peer == self.rank), None), **stats,
            )
            rnd.sendtypes = _dense_table(sends, self.nprocs)
            rnd.recvtypes = _dense_table(recvs, self.nprocs)
            return rnd

        def slabs(rows: list[tuple], piece: int, pieces: int) -> list[tuple]:
            return [(*row[:2], *cut) for row in rows if (cut := _slab(row[2:], piece, pieces))]

        sends, recvs = self.lanes("send", True), self.lanes("recv", True)
        send_at, recv_at = (
            np.searchsorted(rows.round, np.arange(self.nrounds + 1)).tolist()
            for rows in (self.sends, self.recvs)
        )
        rounds = []
        stats = self.partners, self.staged, self.rows
        for members, pieces in executed_groups(backend, self.nprocs, *stats, limit_bytes):
            first, stop = members[0], members[-1] + 1
            out, into = sends[send_at[first]:send_at[stop]], recvs[recv_at[first]:recv_at[stop]]
            if pieces == 1:
                rounds.append(executed_round(
                    out, into, first, len(members) > 1, members=members,
                    max_partners=max(self.partners[first:stop]),
                    max_round_bytes=sum(self.staged[first:stop]),
                ))
            else:
                rounds += [
                    executed_round(
                        slabs(out, piece, pieces), slabs(into, piece, pieces), first,
                        max_partners=self.partners[first], piece=piece, pieces=pieces,
                        max_round_bytes=-(-self.staged[first] // pieces),
                    )
                    for piece in range(pieces)
                ]
        return rounds


@dataclass(eq=False)
class RoundTable:
    """What the cost model prices, per round: ``bytes_out[round, rank]`` and
    ``messages[round, rank]`` (remote lanes only), the plan-wide
    ``max_partners[round]`` that picks each round's protocol, and
    ``self_bytes[rank]``, what a rank keeps across all rounds.  A plan's
    table (:attr:`GlobalPlan.table`) has its planned rounds;
    ``repro.netmodel.executed_plan`` builds one of executed rounds."""

    nprocs: int
    bytes_out: np.ndarray
    messages: np.ndarray
    max_partners: list[int]
    self_bytes: np.ndarray

    @property
    def nrounds(self) -> int:
        return len(self.max_partners)

    def protocols(self, backend: str) -> list[str]:
        """Each round's wire protocol under the policy ``backend``."""
        return [_protocol(backend, busiest, self.nprocs) for busiest in self.max_partners]


@dataclass(eq=False)
class GlobalPlan:
    """A whole plan as rows: the declarations, every overlap
    (:class:`Overlaps`, one row per lane) and the plan-wide per-round
    statistics (:func:`_round_statistics`).  Any rank's :class:`RankPlan`
    is a slice of it (:meth:`rank_plans`); the Table-III statistics are
    array reductions over the rows."""

    declarations: Declarations
    element_size: int
    overlaps: Overlaps = field(init=False)
    #: Per round, across the whole plan: the busiest rank's partner count and
    #: staged bytes, and the tallest lane's rows.
    partners: list[int] = field(init=False)
    staged: list[int] = field(init=False)
    rows: list[int] = field(init=False)
    #: Bytes of each overlap row.
    nbytes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.overlaps = intersect(self.declarations)
        self.nbytes = self.overlaps.extent.prod(axis=1) * self.element_size
        self.partners, self.staged, self.rows = _round_statistics(
            self.nprocs, self.nrounds, self.overlaps, self.nbytes
        )

    @property
    def nprocs(self) -> int:
        return self.declarations.nprocs

    @property
    def ndims(self) -> int:
        return self.declarations.ndims

    @property
    def nrounds(self) -> int:
        return self.declarations.nrounds

    def rank_plans(self, ranks: Optional[Sequence[int]] = None) -> list[RankPlan]:
        """The :class:`RankPlan` of each of ``ranks`` (default: every rank)."""
        decl, overlaps = self.declarations, self.overlaps
        plans = []
        for rank in range(decl.nprocs) if ranks is None else ranks:
            mine = np.flatnonzero(overlaps.owner == rank), np.flatnonzero(overlaps.dest == rank)
            sends, recvs = (Overlaps(*(column[rows] for column in overlaps)) for rows in mine)
            plans.append(RankPlan(
                rank, decl.nprocs, decl.nrounds, self.element_size,
                decl.chunks[decl.starts[rank] : decl.starts[rank + 1]],
                decl.needs[rank] if decl.has_need[rank] else None,
                self.partners, self.staged, self.rows, sends, recvs,
            ))
        return plans

    @cached_property
    def table(self) -> RoundTable:
        """The planned rounds' :class:`RoundTable`, bincounts over the rows."""
        rnd, owner, dest = self.overlaps[:3]
        nprocs, size = self.nprocs, self.nrounds * self.nprocs
        remote = owner != dest
        cell = (rnd * nprocs + owner)[remote]
        # float weights: exact while a rank moves under 2**53 bytes a round
        bytes_out = np.bincount(cell, self.nbytes[remote], size).astype(np.int64)
        kept = np.bincount(owner[~remote], self.nbytes[~remote], nprocs).astype(np.int64)
        return RoundTable(
            nprocs, bytes_out.reshape(self.nrounds, nprocs),
            np.bincount(cell, minlength=size).reshape(self.nrounds, nprocs), self.partners, kept,
        )

    def total_bytes_moved(self, exclude_self: bool = True) -> int:
        total = int(self.table.bytes_out.sum())
        return total if exclude_self else total + int(self.table.self_bytes.sum())

    def mean_bytes_per_chunk_round(self, exclude_self: bool = True) -> float:
        """Average payload per *occupied* chunk slot.

        With uneven chunk counts (e.g. 4096 images round-robin over 125
        ranks) some ranks sit out the last round; this averages only over
        slots that actually hold a chunk — the convention behind the
        paper's Table III round-robin column (total bytes / 4096 images).
        """
        occupied = len(self.declarations.chunks)
        if occupied == 0:
            return 0.0
        return self.total_bytes_moved(exclude_self) / occupied

    def partners_per_rank(self) -> list[int]:
        """Number of distinct remote ranks each rank exchanges data with.

        Drives the paper's future-work observation that sparse patterns
        would benefit from direct sends instead of ``Alltoallw``.
        """
        owner, dest = self.overlaps.owner, self.overlaps.dest
        remote = owner != dest
        owner, dest = owner[remote], dest[remote]
        met = np.unique(np.concatenate((owner * self.nprocs + dest, dest * self.nprocs + owner)))
        return np.bincount(met // self.nprocs, minlength=self.nprocs).tolist()


def plan_ranks(
    decl: Declarations, element_size: int, ranks: Optional[Sequence[int]] = None
) -> list[RankPlan]:
    """The :class:`RankPlan` of each of ``ranks`` (default: every rank), in
    that order; the round statistics come from every rank's rows."""
    return GlobalPlan(decl, element_size).rank_plans(ranks)


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
    return GlobalPlan(Declarations.from_boxes(owns, needs, ndims), element_size)
