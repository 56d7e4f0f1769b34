"""The exchange IR: the planner's overlap rows, their statistics, the round
rule and the executed rounds built from the rows.

One plan description serves the executor, the plan files, the cost models
and Table III, so this file checks it from each side: the geometry the
planner writes down (paper Figure 1 / Table III, random decompositions), the
plan-wide round statistics and the per-round table every cost model prices
(against brute-force box intersection), and the executed rounds
(``RankPlan.executed``, the only builder of merged and piece rounds): which
rounds they merge or cut, that they move exactly the planned cells, and
that their datatypes equal a member-by-member reference.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Box,
    DataDescriptor,
    DataLayout,
    collective_preferred,
    compute_global_plan,
    round_protocol,
)
from repro.core.engine import executed_rounds
from repro.core.mapping import local_mapping, setup_data_mapping
from repro.core.packing import subarray_type
from repro.core import schedule as schedule_module
from repro.core.schedule import Declarations, _slab, executed_groups, plan_ranks
from repro.mpisim.datatypes import BYTE, StructType
from repro.lbm.decompose import slab_box
from repro.utils import MiB
from repro.volren.decompose import grid_boxes, grid_shape
from tests.conftest import every_lane, spmd
from tests.core.test_reorganize_property import crop, random_problem

BACKENDS = ["alltoallw", "p2p", "auto", "bounded"]


def e1_plan():
    """The paper's running example E1 (Figure 1 / Table I)."""
    owns = [[Box((0, r), (8, 1)), Box((0, r + 4), (8, 1))] for r in range(4)]
    needs = [Box((4 * (r % 2), 4 * (r // 2)), (4, 4)) for r in range(4)]
    return compute_global_plan(owns, needs, element_size=4)


def ring_plan(nprocs: int):
    """Sparse 1-D pattern: rank r owns cell r, needs cell (r+1) % nprocs."""
    owns = [[Box((r,), (1,))] for r in range(nprocs)]
    needs = [Box(((r + 1) % nprocs,), (1,)) for r in range(nprocs)]
    return compute_global_plan(owns, needs, element_size=4)


def dense_plan(nprocs: int):
    """Dense 1-D pattern: rank r owns cell r, everyone needs all cells."""
    owns = [[Box((r,), (1,))] for r in range(nprocs)]
    needs = [Box((0,), (nprocs,)) for _ in range(nprocs)]
    return compute_global_plan(owns, needs, element_size=4)


def mixed_plan():
    """Rank 0 owns a wide chunk feeding three ranks (dense round) and a
    narrow one feeding exactly one (sparse round)."""
    owns = [[Box((0,), (6,)), Box((6,), (2,))], [], [], []]
    needs = [Box((r * 2,), (2,)) for r in range(4)]
    return compute_global_plan(owns, needs, element_size=4, ndims=1)


def slab_to_tile_plan(nprocs: int, nx: int = 256, ny: int = 128):
    """The paper's motivating remap: row slabs in, grid tiles out."""
    tiles = grid_boxes((nx, ny), grid_shape(nprocs, (nx, ny)))
    return compute_global_plan(
        [[slab_box(nx, ny, nprocs, r)] for r in range(nprocs)], tiles, element_size=4
    )


def lanes(plan, rank, side):
    """``{(round, peer): overlap}`` of one rank's send or recv rows."""
    (rows,) = plan.rank_plans([rank])
    return {(c, peer): Box(lo, extent) for c, peer, lo, extent, _ in rows.lanes(side)}


def traffic(plan):
    """Bytes moved ``[src, dst]`` over every round, self-copies included."""
    matrix = np.zeros((plan.nprocs, plan.nprocs), dtype=np.int64)
    np.add.at(matrix, (plan.overlaps.owner, plan.overlaps.dest), plan.nbytes)
    return matrix


def executed(plan, rank, backend, limit=None):
    """One rank's executed rounds, typed as ``element_size`` bytes a cell."""
    (rows,) = plan.rank_plans([rank])
    return rows.executed(backend, limit, BYTE, plan.element_size, {})


def same_rows(a, b):
    """Two rank plans (or plans) with the same rows and round statistics."""
    rows = ("sends", "recvs") if hasattr(a, "sends") else ("overlaps",)
    return all(
        all(np.array_equal(x, y) for x, y in zip(getattr(a, name), getattr(b, name)))
        for name in rows
    ) and (a.partners, a.staged, a.rows) == (b.partners, b.staged, b.rows)


class TestE1:
    def test_rounds_equal_max_chunks(self):
        assert e1_plan().nrounds == 2  # every rank owns two chunks

    def test_rank0_maps_match_figure1_panel_b(self):
        """Rank 0 owns rows y=0 and y=4: row 0 splits between ranks 0 (left)
        and 1 (right), row 4 between ranks 2 and 3.  It needs the top-left
        quadrant: one row slice from each rank's first chunk."""
        plan = e1_plan()
        assert lanes(plan, 0, "send") == {
            (0, 0): Box((0, 0), (4, 1)),
            (0, 1): Box((4, 0), (4, 1)),
            (1, 2): Box((0, 4), (4, 1)),
            (1, 3): Box((4, 4), (4, 1)),
        }
        assert lanes(plan, 0, "recv") == {(0, src): Box((0, src), (4, 1)) for src in range(4)}

    def test_byte_accounting(self):
        # Each rank sends 16 cells; rank r keeps the 4 of them inside its quadrant.
        plan = e1_plan()
        table = plan.table
        assert table.bytes_out[:, 0].sum() == 12 * 4 and table.self_bytes[0] == 4 * 4
        assert table.messages[:, 0].tolist() == [1, 2]
        matrix = traffic(plan)
        assert matrix.sum() == plan.total_bytes_moved(exclude_self=False)
        assert np.all(matrix.sum(axis=0) == 16 * 4)  # everyone receives its quadrant
        assert plan.partners_per_rank() == [3, 3, 3, 3]


class TestPlannerEdgeCases:
    OWNS = [[Box((0,), (4,))], [Box((4,), (4,))]]

    @pytest.mark.parametrize("need", [None, Box((0,), (0,))])
    def test_empty_need_receives_nothing(self, need):
        plan = compute_global_plan(self.OWNS, [Box((0,), (8,)), need], 1)
        assert lanes(plan, 1, "recv") == {}
        assert len(lanes(plan, 0, "recv")) == 2

    def test_overlapping_needs_allowed(self):
        """Paper §III-B: receives may overlap (ghost zones)."""
        plan = compute_global_plan(self.OWNS, [Box((0,), (6,)), Box((2,), (6,))], 1)
        assert plan.total_bytes_moved(exclude_self=False) == 12  # 6 cells each

    def test_uneven_chunk_counts(self):
        owns = [
            [Box((0,), (2,)), Box((4,), (2,)), Box((8,), (2,))],
            [Box((2,), (2,)), Box((6,), (2,))],
        ]
        plan = compute_global_plan(owns, [Box((0,), (5,)), Box((5,), (5,))], 4)
        assert plan.nrounds == 3
        assert sorted({c for c, _ in lanes(plan, 1, "send")}) == [0, 1]  # nothing in round 2

    def test_rank_with_no_chunks(self):
        plan = compute_global_plan(
            [[Box((0,), (8,))], []], [Box((0,), (4,)), Box((4,), (4,))], 1
        )
        assert plan.nrounds == 1
        assert lanes(plan, 1, "send") == {} and len(lanes(plan, 1, "recv")) == 1

    def test_bad_declarations_rejected(self):
        with pytest.raises(ValueError):  # dimensionality mismatch
            compute_global_plan([[Box((0,), (4,))]], [Box((0, 0), (2, 2))], 1)
        with pytest.raises(ValueError):  # needs length mismatch
            compute_global_plan([[Box((0,), (4,))]], [], 1)
        with pytest.raises(ValueError):  # nothing to infer a dimensionality from
            compute_global_plan([[], []], [None, None], 1)


def split(n, parts):
    base, rem = divmod(n, parts)
    sizes = [base + (1 if i < rem else 0) for i in range(parts)]
    return list(zip(np.cumsum([0] + sizes[:-1]).tolist(), sizes))


@pytest.mark.slow
class TestPaperTable3:
    """Schedule math at the paper's full 128 GB scale (pure planning)."""

    NX, NY, NZ, ESIZE = 4096, 2048, 4096, 4

    def needs(self, grid):
        xs, ys, zs = split(self.NX, grid), split(self.NY, grid), split(self.NZ, grid)
        return [
            Box((xs[i][0], ys[j][0], zs[k][0]), (xs[i][1], ys[j][1], zs[k][1]))
            for k in range(grid) for j in range(grid) for i in range(grid)
        ]

    def test_consecutive_27(self):
        owns = [[Box((0, 0, z0), (self.NX, self.NY, zn))] for z0, zn in split(self.NZ, 27)]
        plan = compute_global_plan(owns, self.needs(3), self.ESIZE)
        assert plan.nrounds == 1  # paper Table III
        assert plan.mean_bytes_per_chunk_round() / MiB == pytest.approx(4315.12, abs=2.0)

    def test_round_robin_27(self):
        owns = [
            [Box((0, 0, z), (self.NX, self.NY, 1)) for z in range(r, self.NZ, 27)]
            for r in range(27)
        ]
        plan = compute_global_plan(owns, self.needs(3), self.ESIZE)
        assert plan.nrounds == 152  # paper Table III
        assert plan.mean_bytes_per_chunk_round() / MiB == pytest.approx(30.81, abs=0.1)


@given(seed=st.integers(0, 5000))
@settings(max_examples=60, deadline=None)
def test_lane_invariants_on_random_decompositions(seed):
    domain, owns, needs = random_problem(seed)
    plan = compute_global_plan(owns, needs, 8)
    # Paper §III-C: #rounds == max #chunks owned by any rank.
    assert plan.nrounds == max(len(chunks) for chunks in owns)
    keys = list(zip(*(column.tolist() for column in plan.overlaps[:3])))
    assert keys == sorted(set(keys))  # rows in (round, owner, dest) order, one per lane
    matrix = traffic(plan)
    sent, received = set(), set()
    for rank in plan.rank_plans():
        me = rank.rank
        # The recv lanes exactly tile the need — the owned chunks tile the domain.
        covered: set = set()
        for c, peer, lo, extent, _ in rank.lanes("recv"):
            cells = set(Box(lo, extent).cells())
            assert not (covered & cells), "cell received twice"
            covered |= cells
            received.add((peer, me, c, Box(lo, extent)))
        for c, peer, lo, extent, nbytes in rank.lanes("send"):
            # Round c drains chunk slot c; a lane stays inside chunk and need.
            region = Box(lo, extent)
            assert owns[me][c].contains_box(region) and needs[peer].contains_box(region)
            assert nbytes == region.volume() * 8
            sent.add((me, peer, c, region))
        assert covered == set(needs[me].cells())
        # Traffic-matrix rows/columns are what the rank sends/receives, self included.
        assert matrix[me].sum() == plan.table.bytes_out[:, me].sum() + plan.table.self_bytes[me]
        assert matrix[:, me].sum() == needs[me].volume() * 8
    assert sent == received  # sends and recvs are mirror images
    total = plan.total_bytes_moved()
    assert plan.mean_bytes_per_chunk_round() * sum(map(len, owns)) == pytest.approx(total)
    per_slot = Counter()
    for me, peer, c, box in sent:
        per_slot[me, c] += box.volume() * 8 if peer != me else 0
    assert plan.table.bytes_out.max(initial=0) == max(per_slot.values(), default=0)
    assert all(0 <= p < plan.nprocs for p in plan.partners_per_rank())


@given(
    seed=st.integers(0, 5000),
    nprocs=st.integers(1, 6),
    esize=st.sampled_from([1, 4, 12]),
)
@settings(max_examples=100, deadline=None)
def test_planned_table_equals_brute_force_intersection(seed, nprocs, esize):
    """The table both cost models price, from bincounts over the rows, against
    every (round, owner, dest) chunk x need intersected pairwise."""
    _, owns, needs = random_problem(seed, nprocs=nprocs)
    plan = compute_global_plan(owns, needs, esize)
    nrounds = plan.nrounds
    bytes_out = np.zeros((nrounds, nprocs), dtype=np.int64)
    messages = np.zeros((nrounds, nprocs), dtype=np.int64)
    self_bytes = np.zeros(nprocs, dtype=np.int64)
    peers = [[set() for _ in range(nprocs)] for _ in range(nrounds)]
    for c in range(nrounds):
        for owner in range(nprocs):
            for dest in range(nprocs):
                if c >= len(owns[owner]) or needs[dest] is None:
                    continue
                overlap = owns[owner][c].intersect(needs[dest])
                if overlap is None or overlap.is_empty():
                    continue
                nbytes = overlap.volume() * esize
                if owner == dest:
                    self_bytes[owner] += nbytes
                    continue
                bytes_out[c, owner] += nbytes
                messages[c, owner] += 1
                peers[c][owner].add(dest)
                peers[c][dest].add(owner)
    table = plan.table
    assert np.array_equal(table.bytes_out, bytes_out)
    assert np.array_equal(table.messages, messages)
    assert np.array_equal(table.self_bytes, self_bytes)
    assert table.max_partners == [max(len(p) for p in peers[c]) for c in range(nrounds)]
    assert table.nrounds == nrounds


@st.composite
def declarations(draw):
    """Random 1-3-D declarations, valid or not: chunk counts differ between
    ranks (some own none), chunks may be empty or overlap, and a need may be
    ``None``, empty, or reach past every chunk."""
    ndim = draw(st.integers(1, 3))
    nprocs = draw(st.integers(1, 8))

    def box(min_size):
        offset = draw(st.tuples(*[st.integers(0, 7)] * ndim))
        dims = draw(st.tuples(*[st.integers(min_size, 5)] * ndim))
        return Box(offset, dims)

    owns = [[box(0) for _ in range(draw(st.integers(0, 4)))] for _ in range(nprocs)]
    if not any(owns):
        owns[0].append(box(1))
    needs = [draw(st.sampled_from([None, "empty", "box"])) for _ in range(nprocs)]
    needs = [Box((0,) * ndim, (0,) * ndim) if n == "empty" else n and box(1) for n in needs]
    return owns, needs, draw(st.sampled_from([1, 4, 12]))


def subarray_for(container, region, mpi_type, components=1):
    """The subarray selecting ``region`` out of a buffer shaped like ``container``."""
    starts = tuple(r - c for r, c in zip(region.offset, container.offset))
    return subarray_type(mpi_type, container.dims, starts, region.dims, components)


def bind(plan, backend, limit, mpi_type, components=1):
    """The reference: the executed rounds of one rank's ``plan`` as ``(fields,
    send lanes, receive lanes)``, each lane ``(peer, nbytes, datatype)`` in
    peer order, built member by member from the rows — the groups
    :func:`executed_groups` draws, a piece-round's parts cut by :func:`_slab`,
    one subarray per part and a struct of them per merged lane (sends over
    every owned chunk, receives over the need)."""
    own, need = plan.own_boxes(), plan.need_box()

    def typed(parts, sending, merged):
        members = [
            (c if sending else 0, subarray_for(own[c] if sending else need, Box(lo, extent),
                                               mpi_type, components))
            for c, _, lo, extent, _ in parts
        ]
        return StructType(members, len(own) if sending else 1) if merged else members[0][1]

    def bound(rows, sending, merged):
        by_peer = {}
        for row in rows:
            by_peer.setdefault(row[1], []).append(row)
        return [
            (peer, sum(part[4] for part in parts), typed(parts, sending, merged))
            for peer, parts in sorted(by_peer.items())
        ]

    reference = []
    for members, pieces in executed_groups(
        backend, plan.nprocs, plan.partners, plan.staged, plan.rows, limit
    ):
        first, merged = members[0], len(members) > 1
        sends = [row for row in plan.lanes("send") if row[0] in members]
        recvs = [row for row in plan.lanes("recv") if row[0] in members]
        for piece in range(pieces):
            if pieces > 1:
                sends_, recvs_ = (
                    [(*row[:2], *cut) for row in rows if (cut := _slab(row[2:], piece, pieces))]
                    for rows in (sends, recvs)
                )
                staged = -(-plan.staged[first] // pieces)
            else:
                sends_, recvs_ = sends, recvs
                staged = sum(plan.staged[m] for m in members)
            fields = (
                first, None if merged or first >= len(own) else first, members, piece, pieces,
                max(plan.partners[m] for m in members), staged,
            )
            reference.append((fields, bound(sends_, True, merged), bound(recvs_, False, merged)))
    return reference


def lane_buffers(plan, components, rng):
    shape = (components,) if components > 1 else ()
    own = [rng.random(c.np_shape() + shape, dtype=np.float32) for c in plan.own_boxes()]
    need = plan.need_box()
    return own, None if need is None else rng.random(need.np_shape() + shape, dtype=np.float32)


@given(
    problem=declarations(),
    components=st.integers(1, 3),
    backend=st.sampled_from(BACKENDS),
    zero_copy=st.booleans(),
    budget=st.sampled_from(["none", "between", "below", "rows"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=200, deadline=None)
def test_executed_rounds_equal_the_member_by_member_reference(
    problem, components, backend, zero_copy, budget, seed
):
    """What set-up executes, built straight from one rank's rows, is the
    reference bound member by member: the same rounds, members, pieces,
    peers and byte counts, and lane datatypes that pack any buffers bitwise
    alike."""
    owns, needs, esize = problem
    decl = Declarations.from_boxes(owns, needs)
    mpi_type = DataDescriptor.create(len(owns), DataLayout(decl.ndims), "f4").mpi_type
    rng = np.random.default_rng(seed)
    for plan in plan_ranks(decl, esize):
        staged = plan.staged
        limit = {"none": None, "between": max(staged, default=0) + sum(staged) // 3,
                 "below": max(staged, default=0) // 2, "rows": 1}[budget]
        limit = None if zero_copy else limit
        rounds = plan.executed(backend, limit, mpi_type, components, {})
        reference = bind(plan, backend, limit, mpi_type, components)
        assert len(rounds) == len(reference)
        own, need = lane_buffers(plan, components, rng)
        for rnd, (expect, sends, recvs) in zip(rounds, reference):
            fields = ("index", "chunk_index", "members", "piece", "pieces", "max_partners",
                      "max_round_bytes")
            assert tuple(getattr(rnd, f) for f in fields) == expect
            send_buffer, recv_buffer = rnd.buffers(own, need)
            for side, expected, buffer, table in (
                ("send", sends, send_buffer, rnd.sendtypes),
                ("recv", recvs, recv_buffer, rnd.recvtypes),
            ):
                lanes_ = every_lane(rnd, side)
                assert [(l.peer, l.nbytes) for l in lanes_] == [e[:2] for e in expected]
                assert table == [
                    next((l.datatype for l in lanes_ if l.peer == p), None)
                    for p in range(plan.nprocs)
                ]
                for lane, (_, _, datatype) in zip(lanes_, expected):
                    assert lane.datatype.pack(buffer).tobytes() == datatype.pack(buffer).tobytes()


@given(problem=declarations())
@settings(max_examples=200, deadline=None)
def test_rank_local_plan_equals_the_global_plan(problem):
    """The set-up keeps one rank's rows; the global plan plans everyone's.
    Every rank's own rows are the global plan's, and the plan-wide round
    statistics are the worst rank's, recomputed from its lanes."""
    owns, needs, esize = problem
    plan = compute_global_plan(owns, needs, esize)
    decl = Declarations.from_boxes(owns, needs)
    ranks = plan.rank_plans()
    for rank, expected in enumerate(ranks):
        (local,) = plan_ranks(decl, esize, ranks=[rank])
        assert same_rows(local, expected)
    for k in range(plan.nrounds):
        partners, staged, rows = [], [], [1]
        for rank in ranks:
            out = [row for row in rank.lanes("send") if row[0] == k]
            into = [row for row in rank.lanes("recv") if row[0] == k and row[1] != rank.rank]
            remote = {row[1] for row in out + into} - {rank.rank}
            partners.append(len(remote))
            staged.append(sum(row[4] for row in out + into))
            rows += [row[3][-1] for row in out]
        assert (plan.partners[k], plan.staged[k], plan.rows[k]) == (
            max(partners), max(staged), max(rows)
        )


def test_intersection_passes_do_not_change_the_plan(monkeypatch):
    """One chunk per broadcast pass plans exactly what one pass for all does."""
    for seed in range(20):
        _, owns, needs = random_problem(seed, ndim=3, nprocs=5)
        whole = compute_global_plan(owns, needs, 4)
        with monkeypatch.context() as patch:
            patch.setattr(schedule_module, "PAIRS_PER_PASS", 1)
            assert same_rows(compute_global_plan(owns, needs, 4), whole)


@given(problem=declarations())
@settings(max_examples=25, deadline=None)
def test_set_up_builds_the_global_plans_schedule(problem):
    """Through the collective set-up itself (declarations allgathered as
    arrays, validation off: these need not tile)."""
    owns, needs, _ = problem
    ndim = next(box.ndim for chunks in owns for box in chunks)
    plan = compute_global_plan(owns, needs, 4)

    def fn(comm):
        descriptor = DataDescriptor.create(comm.size, DataLayout(ndim), np.float32)
        mapping = setup_data_mapping(
            comm, descriptor, owns[comm.rank], needs[comm.rank], validate=False
        )
        assert same_rows(mapping.plan, plan.rank_plans([comm.rank])[0])
        assert (mapping.nrounds, mapping.own_chunks, mapping.need) == (
            plan.nrounds, owns[comm.rank], needs[comm.rank],
        )

    spmd(len(owns), fn)


class TestRoundRule:
    def test_collective_preferred(self):
        assert not collective_preferred(0, 1) and not collective_preferred(5, 1)
        # 9 ranks: threshold 0.5 * 8 = 4 partners.
        assert collective_preferred(4, 9) and not collective_preferred(3, 9)

    @pytest.mark.parametrize(
        "plan, partners, choices",
        [
            (ring_plan(6), [2], ["p2p"]),  # one neighbour each way
            (dense_plan(6), [5], ["alltoallw"]),
            (mixed_plan(), [2, 1], ["alltoallw", "p2p"]),
        ],
    )
    def test_round_statistics_and_choices_agree_on_every_rank(self, plan, partners, choices):
        assert plan.partners == partners and plan.table.protocols("auto") == choices
        for rank in range(plan.nprocs):
            # Every rank's executed rounds carry the plan-wide worst rank, so
            # the per-round protocol needs no negotiation.
            rounds = executed(plan, rank, "auto")
            assert [round_protocol("auto", rnd) for rnd in rounds] == choices
            assert [rnd.max_partners for rnd in rounds] == partners

    def test_choices_stable_across_rebuilds(self):
        for build in (lambda: slab_to_tile_plan(5), e1_plan):
            assert build().table.protocols("auto") == build().table.protocols("auto")


def cell_ids(problem):
    """The global array of cell ids, and the domain it spans."""
    domain = problem[0]
    return np.arange(domain.volume(), dtype=np.int64).reshape(domain.np_shape()), domain


def planned_transfers(plan, rank, ids, domain):
    """``(direction, src, dst, cell)`` of every planned row of ``rank``, self
    rows included: a multiset, so a cell moved twice shows."""
    (rows,) = plan.rank_plans([rank])
    return Counter(
        (side, *((rank, peer) if side == "send" else (peer, rank)), int(cell))
        for side in ("send", "recv")
        for _, peer, lo, extent, _ in rows.lanes(side)
        for cell in crop(ids, domain, Box(lo, extent)).ravel()
    )


def executed_transfers(rounds, rank, owns, need, ids, domain):
    """The same multiset, read off executed rounds by packing the cell ids
    through each lane's datatype."""
    own = [np.ascontiguousarray(crop(ids, domain, chunk)) for chunk in owns]
    need = None if need is None else np.ascontiguousarray(crop(ids, domain, need))
    moved = Counter()
    for rnd in rounds:
        buffers = dict(zip(("send", "recv"), rnd.buffers(own, need)))
        for side in ("send", "recv"):
            for lane in every_lane(rnd, side):
                pair = (rank, lane.peer) if side == "send" else (lane.peer, rank)
                cells = np.frombuffer(lane.datatype.pack(buffers[side]).tobytes(), np.int64)
                moved.update((side, *pair, int(cell)) for cell in cells)
    return moved


def id_rounds(plan, rank, backend, limit):
    """One rank's executed rounds, typed for the int64 cell-id buffers."""
    mpi_type = DataDescriptor.create(plan.nprocs, DataLayout(plan.ndims), np.int64).mpi_type
    (rows,) = plan.rank_plans([rank])
    return rows.executed(backend, limit, mpi_type, 1, {})


def budgets(plan):
    staged = plan.staged
    peak = max(staged, default=0)
    return staged, {
        "none": None,
        "between": peak + (sum(staged) - peak) // 2,
        "below": peak // 2,
    }


class TestCoalesce:
    """The merging direction of ``RankPlan.executed``: the executed rounds
    move exactly the planned cells, in groups every rank draws identically
    and no budget is exceeded by."""

    @given(
        seed=st.integers(0, 5000),
        nprocs=st.integers(1, 6),
        budget=st.sampled_from(["none", "between", "below"]),
        backend=st.sampled_from(BACKENDS),
    )
    @settings(max_examples=120, deadline=None)
    def test_preserves_transfers_and_boundaries_agree(self, seed, nprocs, budget, backend):
        problem = random_problem(seed, nprocs=nprocs)
        _, owns, needs = problem
        plan = compute_global_plan(owns, needs, 8)
        ids, domain = cell_ids(problem)
        staged, limits = budgets(plan)
        limit = limits[budget]
        verdicts = plan.table.protocols(backend)
        boundaries = set()
        for rank in range(nprocs):
            rounds = id_rounds(plan, rank, backend, limit)
            assert executed_transfers(rounds, rank, owns[rank], needs[rank], ids, domain) == (
                planned_transfers(plan, rank, ids, domain)
            )
            # The pieces of a lowered round count as one group (TestSplit has them).
            groups = [rnd.members for rnd in rounds if rnd.piece == 0]
            boundaries.add(tuple(groups))
            assert [i for g in groups for i in g] == list(range(plan.nrounds))
            for rnd in rounds:
                group = rnd.members
                assert len({verdicts[i] for i in group}) == 1 and rnd.index == group[0]
                if rnd.pieces > 1:
                    continue
                assert round_protocol(backend, rnd) == verdicts[group[0]]
                assert rnd.max_round_bytes == sum(staged[i] for i in group)
                assert rnd.bytes_out == plan.table.bytes_out[list(group), rank].sum()
                assert [lane.peer for lane in rnd.sends] == sorted({l.peer for l in rnd.sends})
                if len(group) > 1:
                    assert limit is None or sum(staged[i] for i in group) <= limit
            # Greedy: a group stopped growing only at a verdict change or the cap.
            for left, right in zip(groups, groups[1:]):
                assert verdicts[left[0]] != verdicts[right[0]] or (
                    limit is not None and sum(staged[i] for i in left) + staged[right[0]] > limit
                )
        assert len(boundaries) == 1, "ranks disagree on group boundaries"

    def test_nothing_to_merge_returns_the_schedule_itself(self):
        """Executed rounds that are the planned ones, one for one."""
        def planned(plan, rank, backend, limit=None):
            rounds = executed(plan, rank, backend, limit)
            return [(r.members, r.pieces) for r in rounds] == [
                ((c,), 1) for c in range(plan.nrounds)
            ]

        for plan in (ring_plan(5), dense_plan(3)):  # one planned round
            assert all(planned(plan, r, b) for r in range(plan.nprocs) for b in BACKENDS)
        assert planned(mixed_plan(), 0, "auto")  # two rounds, two protocols
        e1 = e1_plan()  # two rounds, one protocol: no room
        assert planned(e1, 0, "auto", e1.staged[0])
        # Over any limit, but lanes one row tall: nothing to cut either.
        assert planned(e1, 0, "alltoallw", 1)

    def test_e1_merges_into_one_message_per_peer(self):
        plan = e1_plan()
        for rank in range(plan.nprocs):
            (rnd,) = executed(plan, rank, "auto")
            assert rnd.members == (0, 1) and rnd.chunk_index is None and plan.nrounds == 2
            remote = {peer for _, peer in lanes(plan, rank, "send")} - {rank}
            assert [lane.peer for lane in rnd.sends] == sorted(remote)
            assert rnd.bytes_out == plan.table.bytes_out[:, rank].sum()
            assert rnd.self_bytes == plan.table.self_bytes[rank]


class TestSplit:
    """The splitting direction of ``RankPlan.executed``: a round over the
    limit runs as k piece-rounds that tile every lane, k and the cuts alike
    on every rank."""

    @given(
        seed=st.integers(0, 5000),
        nprocs=st.integers(1, 6),
        backend=st.sampled_from(BACKENDS),
        divisor=st.sampled_from([2, 3, 5, 16, 10**6]),
    )
    @settings(max_examples=120, deadline=None)
    def test_pieces_tile_every_lane_and_agree_on_every_rank(self, seed, nprocs, backend, divisor):
        problem = random_problem(seed, nprocs=nprocs)
        _, owns, needs = problem
        plan = compute_global_plan(owns, needs, 8)
        ids, domain = cell_ids(problem)
        staged, _ = budgets(plan)
        limit = max(staged, default=0) // divisor
        shapes = set()
        for rank in range(nprocs):
            rounds = id_rounds(plan, rank, backend, limit)
            # Tiled exactly, disjoint.
            assert executed_transfers(rounds, rank, owns[rank], needs[rank], ids, domain) == (
                planned_transfers(plan, rank, ids, domain)
            )
            shapes.add(tuple((r.members, r.piece, r.pieces) for r in rounds))
            (rows,) = plan.rank_plans([rank])
            for rnd in rounds:
                if rnd.pieces == 1:
                    # Whole rounds fit, or no lane of theirs has a second row.
                    assert rnd.max_round_bytes <= limit or plan.rows[rnd.index] == 1
                    continue
                (index,) = rnd.members
                k = rnd.pieces
                assert staged[index] > limit
                assert round_protocol(backend, rnd) == plan.table.protocols(backend)[index]
                assert k == min(-(-staged[index] // max(1, limit // 2)), plan.rows[index])
                assert rnd.chunk_index == (index if index < len(owns[rank]) else None)
                # No piece-round is staged above its share plus a row per lane.
                row_bytes = sum(
                    row[4] // row[3][-1]
                    for side in ("send", "recv") for row in rows.lanes(side)
                    if row[0] == index and (side == "send" or row[1] != rank)
                )
                assert rnd.max_round_bytes == -(-staged[index] // k)
                peak = rnd.bytes_out + rnd.bytes_in + rnd.self_bytes
                assert peak <= rnd.max_round_bytes + row_bytes
        assert len(shapes) == 1, "ranks disagree on pieces"

    def test_only_rounds_over_the_limit_are_cut(self):
        plan = slab_to_tile_plan(4)
        (staged,) = plan.staged
        for rank in range(4):
            for backend in BACKENDS:
                assert len(executed(plan, rank, backend, staged)) == 1
                assert len(executed(plan, rank, backend, None)) == 1
                # Half the limit per piece: twice the pieces the ratio suggests.
                assert len(executed(plan, rank, backend, staged // 4)) == 8

    def test_a_lane_shorter_than_k_sits_pieces_out(self):
        # Rank 0's chunk is 8 rows for rank 0 itself and 2 rows for rank 1.
        owns = [[Box((0, 0), (4, 10))], []]
        needs = [Box((0, 0), (4, 8)), Box((0, 8), (4, 2))]
        plan = compute_global_plan(owns, needs, element_size=4)
        assert (plan.staged, plan.rows) == ([160], [8])
        pieces = [executed(plan, rank, "bounded", 40) for rank in range(2)]
        assert [len(p) for p in pieces] == [8, 8]
        for sender, receiver in zip(*pieces):
            assert [l.nbytes for l in sender.sends] == [l.nbytes for l in receiver.recvs]
            assert sender.self_send.nbytes == sender.self_recv.nbytes == 16  # one row each
        assert [len(p.sends) for p in pieces[0]] == [0, 0, 0, 1, 0, 0, 0, 1]


class TestLanes:
    def test_ring_lanes_and_bytes(self):
        plan = ring_plan(4)
        for rank in range(4):
            # One remote send (to the rank that needs my cell), one remote recv.
            assert list(lanes(plan, rank, "send")) == [(0, (rank - 1) % 4)]
            assert list(lanes(plan, rank, "recv")) == [(0, (rank + 1) % 4)]
            (rnd,) = executed(plan, rank, "p2p")
            assert [lane.peer for lane in rnd.sends] == [(rank - 1) % 4]
            assert [lane.peer for lane in rnd.recvs] == [(rank + 1) % 4]
            assert (rnd.bytes_out, rnd.bytes_in) == (4, 4)
            assert rnd.self_send is None and rnd.self_recv is None
        assert plan.table.messages.tolist() == [[1, 1, 1, 1]]

    def test_self_lane_split_out(self):
        # Rank 0 keeps its own cell: the transfer is a self lane, not a message.
        plan = compute_global_plan(
            [[Box((0,), (1,))], [Box((1,), (1,))]], [Box((0,), (2,)), None], element_size=8
        )
        (rnd,) = executed(plan, 0, "alltoallw")
        assert rnd.self_send.nbytes == 8 and rnd.sends == []
        assert [lane.peer for lane in rnd.recvs] == [1]
        assert rnd.self_bytes == plan.table.self_bytes[0] == 8

    def test_bind_attaches_datatypes_to_a_copy(self):
        """Datatypes live on the executed rounds a mapping builds, not on the rows."""
        plan = dense_plan(3)
        descriptor = DataDescriptor.create(3, DataLayout.DATA_TYPE_1D, np.float32)
        mapping = local_mapping(plan.rank_plans([0])[0], None, descriptor)
        (rnd,) = executed_rounds(mapping, "alltoallw", True)
        assert all(lane.datatype is not None for side in ("send", "recv")
                   for lane in every_lane(rnd, side))
        # Dense per-peer tables, prebuilt, with the self lane on the diagonal.
        assert rnd.sendtypes[0] is rnd.self_send.datatype
        assert rnd.recvtypes == [lane.datatype for lane in every_lane(rnd, "recv")]
        assert len(rnd.sendtypes) == 3 and len(rnd.recvtypes) == 3
        assert (mapping.own_chunks, mapping.need) == ([Box((0,), (1,))], Box((0,), (3,)))


class TestAccounting:
    @pytest.mark.parametrize("plan", [slab_to_tile_plan(2), slab_to_tile_plan(7), e1_plan()])
    def test_bytes_conserved_round_by_round(self, plan):
        # Rounds are synchronized: a lane sent in round k is received in round
        # k, and in the same piece of it.
        assert plan.total_bytes_moved() > 0
        for backend, limit in zip(BACKENDS, (None, max(plan.staged) // 3, 1, 10**9)):
            ranks = [executed(plan, rank, backend, limit) for rank in range(plan.nprocs)]
            for rounds in zip(*ranks):
                assert sum(r.bytes_out for r in rounds) == sum(r.bytes_in for r in rounds)

    def test_self_bytes_never_on_the_wire(self):
        plan = slab_to_tile_plan(4)
        for rank in range(4):
            for rnd in executed(plan, rank, "alltoallw"):
                assert rank not in {l.peer for l in rnd.sends + rnd.recvs}
                assert rnd.self_send is None or rnd.self_send.peer == rank


@st.composite
def part_lists(draw):
    """A merged receive lane's parts ``(round, peer, lo, extent, nbytes)``:
    a regular run along one axis, then perhaps one irregular step, one
    unequal extent or a run along a second axis."""
    ndims = draw(st.integers(1, 3))
    extent = tuple(draw(st.lists(st.integers(1, 3), min_size=ndims, max_size=ndims)))
    axis = draw(st.integers(0, ndims - 1))
    step = extent[axis] if extent[axis] > 1 else draw(st.integers(1, 4))
    count = draw(st.integers(1, 12))
    lo = tuple(draw(st.lists(st.integers(0, 5), min_size=ndims, max_size=ndims)))
    los = [tuple(v + k * step * (a == axis) for a, v in enumerate(lo)) for k in range(count)]
    extents = [extent] * count
    at = draw(st.integers(0, count - 1))
    flaw = draw(st.sampled_from(["none", "step", "extent", "axis"]))
    if flaw == "step":
        los[at:] = [tuple(v + (a == axis) for a, v in enumerate(x)) for x in los[at:]]
    elif flaw == "extent":
        extents[at] = tuple(e + (a == 0) for a, e in enumerate(extent))
    elif flaw == "axis":
        other = draw(st.integers(0, ndims - 1))
        los[at:] = [tuple(v + (k + 1) * extent[other] * (a == other) for a, v in enumerate(x))
                    for k, x in enumerate(los[at:])]
    return [(k, 0, x, e, 4 * int(np.prod(e))) for k, (x, e) in enumerate(zip(los, extents))]


@given(parts=part_lists())
@settings(max_examples=300, deadline=None)
def test_a_regular_run_is_recognised_as_part_by_part(parts):
    """``_runs``' whole-lane fast path cuts a part list exactly as one
    ``_step`` per part does: regular runs, an irregular step, unequal
    extents, two axes."""
    assert schedule_module._runs(parts) == schedule_module._runs_by_part(parts)
