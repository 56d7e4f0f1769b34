"""The exchange IR: the planner's lanes, their statistics, and the round rule.

One plan description serves the executor, the plan files, the cost models
and Table III, so this file checks it from each side: the geometry the
planner writes down (paper Figure 1 / Table III, random decompositions), the
plan-wide round statistics every rank must agree on, the accounting the
memory budget trusts (bytes conserved), and the per-round protocol choice and
the regrouping into executed rounds being pure functions of the plan.
"""

from __future__ import annotations

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
    regroup,
    round_protocol,
)
from repro.core.engine import executed_rounds
from repro.core.mapping import local_mapping, setup_data_mapping
from repro.core.packing import subarray_type
from repro.core import schedule as schedule_module
from repro.core.schedule import Declarations, assemble_plan, plan_ranks
from repro.mpisim.datatypes import StructType
from repro.lbm.decompose import slab_box
from repro.utils import MiB
from repro.volren.decompose import grid_boxes, grid_shape
from tests.conftest import spmd
from tests.core.test_reorganize_property import random_problem


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


def sends(schedule):
    return {(r.index, lane.peer): lane.region for r in schedule.rounds for lane in r.all_sends()}


def recvs(schedule):
    return {(r.index, lane.peer): lane.region for r in schedule.rounds for lane in r.all_recvs()}


def auto_choices(schedule):
    return [round_protocol("auto", rnd) for rnd in schedule.rounds]


class TestE1:
    def test_rounds_equal_max_chunks(self):
        assert e1_plan().nrounds == 2  # every rank owns two chunks

    def test_rank0_maps_match_figure1_panel_b(self):
        """Rank 0 owns rows y=0 and y=4: row 0 splits between ranks 0 (left)
        and 1 (right), row 4 between ranks 2 and 3.  It needs the top-left
        quadrant: one row slice from each rank's first chunk."""
        rank0 = e1_plan().schedules[0]
        assert sends(rank0) == {
            (0, 0): Box((0, 0), (4, 1)),
            (0, 1): Box((4, 0), (4, 1)),
            (1, 2): Box((0, 4), (4, 1)),
            (1, 3): Box((4, 4), (4, 1)),
        }
        assert recvs(rank0) == {(0, src): Box((0, src), (4, 1)) for src in range(4)}

    def test_byte_accounting(self):
        # Each rank sends 16 cells; rank r keeps the 4 of them inside its quadrant.
        plan = e1_plan()
        rank0 = plan.schedules[0]
        assert rank0.total_bytes_out == 12 * 4 and rank0.total_self_bytes == 4 * 4
        assert sum(r.bytes_in + r.self_bytes for r in rank0.rounds) == 16 * 4
        matrix = plan.traffic_matrix()
        assert matrix.sum() == plan.total_bytes_moved(exclude_self=False)
        assert np.all(matrix.sum(axis=0) == 16 * 4)  # everyone receives its quadrant
        assert plan.partners_per_rank() == [3, 3, 3, 3]


class TestPlannerEdgeCases:
    OWNS = [[Box((0,), (4,))], [Box((4,), (4,))]]

    @pytest.mark.parametrize("need", [None, Box((0,), (0,))])
    def test_empty_need_receives_nothing(self, need):
        plan = compute_global_plan(self.OWNS, [Box((0,), (8,)), need], 1)
        assert recvs(plan.schedules[1]) == {}
        assert len(recvs(plan.schedules[0])) == 2

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
        assert [r.chunk_index for r in plan.schedules[1].rounds] == [0, 1, None]

    def test_rank_with_no_chunks(self):
        plan = compute_global_plan(
            [[Box((0,), (8,))], []], [Box((0,), (4,)), Box((4,), (4,))], 1
        )
        assert plan.nrounds == 1
        assert sends(plan.schedules[1]) == {} and len(recvs(plan.schedules[1])) == 1

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
    matrix = plan.traffic_matrix()
    sent, received = set(), set()
    for s in plan.schedules:
        # The recv lanes exactly tile the need — the owned chunks tile the domain.
        covered: set = set()
        for rnd in s.rounds:
            assert [lane.peer for lane in rnd.sends] == sorted({l.peer for l in rnd.sends})
            assert [lane.peer for lane in rnd.recvs] == sorted({l.peer for l in rnd.recvs})
            for lane in rnd.all_recvs():
                cells = set(lane.region.cells())
                assert not (covered & cells), "cell received twice"
                covered |= cells
                received.add((lane.peer, s.rank, rnd.index, lane.region))
            for lane in rnd.all_sends():
                # Round c drains chunk slot c; a lane stays inside chunk and need.
                assert lane.container == owns[s.rank][rnd.index]
                assert lane.container.contains_box(lane.region)
                assert needs[lane.peer].contains_box(lane.region)
                assert lane.nbytes == lane.region.volume() * 8
                sent.add((s.rank, lane.peer, rnd.index, lane.region))
        assert covered == set(s.need.cells())
        # Traffic-matrix rows/columns are what the rank sends/receives, self included.
        assert matrix[s.rank].sum() == s.total_bytes_out + s.total_self_bytes
        assert matrix[:, s.rank].sum() == s.need.volume() * 8
    assert sent == received  # sends and recvs are mirror images
    total = plan.total_bytes_moved()
    assert plan.mean_bytes_per_rank_per_round() * plan.nprocs * plan.nrounds == pytest.approx(total)
    assert plan.mean_bytes_per_chunk_round() * sum(map(len, owns)) == pytest.approx(total)
    assert plan.max_bytes_per_rank_per_round() == max(
        r.bytes_out for s in plan.schedules for r in s.rounds
    )
    assert all(0 <= p < plan.nprocs for p in plan.partners_per_rank())


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


def bind(executed, planned, mpi_type, components=1):
    """The reference: each executed round of ``executed`` (:func:`regroup` of
    ``planned``) as ``(round, send lanes, receive lanes)`` with a datatype per
    lane, built member by member — one subarray per part, a struct of them
    per merged lane (sends over every owned chunk, receives over the need)."""

    def typed(lane, parts, nbuffers):
        if nbuffers is None:
            return lane.peer, lane.nbytes, subarray_for(lane.container, lane.region, mpi_type,
                                                        components)
        members = [(b, subarray_for(p.container, p.region, mpi_type, components))
                   for b, p in parts]
        return lane.peer, lane.nbytes, StructType(members, nbuffers)

    nchunks = len(planned.own_chunks)
    bound = []
    for rnd in executed.rounds:
        merged = len(rnd.members) > 1
        sends = [
            typed(lane, [(m, p) for m in rnd.members for p in planned.rounds[m].all_sends()
                         if p.peer == lane.peer], nchunks if merged else None)
            for lane in rnd.all_sends()
        ]
        recvs = [typed(lane, [(0, p) for p in lane.parts], 1 if merged else None)
                 for lane in rnd.all_recvs()]
        bound.append((rnd, sends, recvs))
    return bound


def lane_buffers(schedule, components, rng):
    shape = (components,) if components > 1 else ()
    own = [rng.random(c.np_shape() + shape, dtype=np.float32) for c in schedule.own_chunks]
    need = None if schedule.need is None else rng.random(
        schedule.need.np_shape() + shape, dtype=np.float32)
    return own, need


@given(
    problem=declarations(),
    components=st.integers(1, 3),
    backend=st.sampled_from(["alltoallw", "p2p", "auto", "bounded"]),
    zero_copy=st.booleans(),
    budget=st.sampled_from(["none", "between", "below", "rows"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=200, deadline=None)
def test_executed_rounds_equal_the_regrouped_reference(
    problem, components, backend, zero_copy, budget, seed
):
    """What set-up executes, built straight from one rank's rows, is the
    regrouped planned schedule bound member by member: the same rounds,
    members, pieces, peers and byte counts, and lane datatypes that pack any
    buffers bitwise alike."""
    owns, needs, esize = problem
    decl = Declarations.from_boxes(owns, needs)
    mpi_type = DataDescriptor.create(len(owns), DataLayout(decl.ndims), "f4").mpi_type
    rng = np.random.default_rng(seed)
    schedules = compute_global_plan(owns, needs, esize).schedules
    for plan, planned in zip(plan_ranks(decl, esize), schedules):
        staged = plan.staged
        limit = {"none": None, "between": max(staged, default=0) + sum(staged) // 3,
                 "below": max(staged, default=0) // 2, "rows": 1}[budget]
        limit = None if zero_copy else limit
        rounds = plan.executed(backend, limit, mpi_type, components, {})
        reference = bind(regroup(planned, backend, limit), planned, mpi_type, components)
        assert len(rounds) == len(reference)
        own, need = lane_buffers(planned, components, rng)
        for rnd, (expect, sends, recvs) in zip(rounds, reference):
            fields = ("index", "chunk_index", "members", "piece", "pieces", "max_partners",
                      "max_round_bytes")
            assert [getattr(rnd, f) for f in fields] == [getattr(expect, f) for f in fields]
            send_buffer, recv_buffer = rnd.buffers(own, need)
            for lanes, expected, buffer, table in (
                (rnd.all_sends(), sends, send_buffer, rnd.sendtypes),
                (rnd.all_recvs(), recvs, recv_buffer, rnd.recvtypes),
            ):
                assert [(l.peer, l.nbytes) for l in lanes] == [e[:2] for e in expected]
                assert table == [
                    next((l.datatype for l in lanes if l.peer == p), None)
                    for p in range(plan.nprocs)
                ]
                for lane, (_, _, datatype) in zip(lanes, expected):
                    assert lane.datatype.pack(buffer).tobytes() == datatype.pack(buffer).tobytes()


@given(problem=declarations())
@settings(max_examples=200, deadline=None)
def test_rank_local_plan_equals_the_global_plan(problem):
    """The set-up keeps one rank's rows; the global plan plans everyone's.
    Every rank's own schedule is field-for-field the global plan's."""
    owns, needs, esize = problem
    plan = compute_global_plan(owns, needs, esize)
    decl = Declarations.from_boxes(owns, needs)
    for rank, expected in enumerate(plan.schedules):
        (local,) = assemble_plan(decl, esize, ranks=[rank])
        assert local == expected
    for k in range(plan.nrounds):  # the array-derived statistics, against the lanes
        rounds = [s.rounds[k] for s in plan.schedules]
        rows = [lane.region.dims[-1] for r in rounds for lane in r.all_sends()]
        assert {r.max_partners for r in rounds} == {max(r.partners for r in rounds)}
        assert {r.max_round_bytes for r in rounds} == {max(r.peak_bytes() for r in rounds)}
        assert {r.max_lane_rows for r in rounds} == {max(rows, default=1)}


def test_intersection_passes_do_not_change_the_plan(monkeypatch):
    """One chunk per broadcast pass plans exactly what one pass for all does."""
    for seed in range(20):
        _, owns, needs = random_problem(seed, ndim=3, nprocs=5)
        whole = compute_global_plan(owns, needs, 4)
        with monkeypatch.context() as patch:
            patch.setattr(schedule_module, "PAIRS_PER_PASS", 1)
            assert compute_global_plan(owns, needs, 4).schedules == whole.schedules


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
        assert mapping.schedule == plan.schedules[comm.rank]
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
        for s in plan.schedules:
            # Every rank's copy of a round carries the plan-wide worst rank, so
            # the per-round protocol needs no negotiation.
            assert [r.max_partners for r in s.rounds] == partners
            assert auto_choices(s) == choices
        for k in range(plan.nrounds):
            rounds = [s.rounds[k] for s in plan.schedules]
            assert rounds[0].max_partners == max(r.partners for r in rounds)
            assert {r.max_round_bytes for r in rounds} == {max(r.peak_bytes() for r in rounds)}

    def test_choices_stable_across_rebuilds(self):
        for build in (lambda: slab_to_tile_plan(5), e1_plan):
            first = [auto_choices(s) for s in build().schedules]
            assert first == [auto_choices(s) for s in build().schedules]
            assert len({tuple(c) for c in first}) == 1


def transfers(schedule):
    """Sorted (direction, src, dst, cell, container) of every cell of every
    lane, self lanes included: a multiset, so a cell moved twice or by an
    overlapping piece shows."""
    me = schedule.rank
    moved = []
    for rnd in schedule.rounds:
        for lane in rnd.all_sends():
            moved += [
                ("send", me, lane.peer, cell, t.container)
                for t in lane.parts or [lane] for cell in t.region.cells()
            ]
        for lane in rnd.all_recvs():
            moved += [
                ("recv", lane.peer, me, cell, t.container)
                for t in lane.parts or [lane] for cell in t.region.cells()
            ]
    return sorted(moved, key=repr)


def budgets(plan):
    staged = [rnd.max_round_bytes for rnd in plan.schedules[0].rounds]
    peak = max(staged, default=0)
    return staged, {
        "none": None,
        "between": peak + (sum(staged) - peak) // 2,
        "below": peak // 2,
    }


class TestCoalesce:
    """The merging direction of ``regroup``: the executed schedule moves
    exactly the planned transfers, in groups every rank draws identically
    and no budget is exceeded by."""

    @given(
        seed=st.integers(0, 5000),
        nprocs=st.integers(1, 6),
        budget=st.sampled_from(["none", "between", "below"]),
        backend=st.sampled_from(["alltoallw", "p2p", "auto", "bounded"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_preserves_transfers_and_boundaries_agree(self, seed, nprocs, budget, backend):
        domain, owns, needs = random_problem(seed, nprocs=nprocs)
        plan = compute_global_plan(owns, needs, 4)
        staged, limits = budgets(plan)
        limit = limits[budget]
        boundaries = set()
        for planned in plan.schedules:
            verdicts = [round_protocol(backend, rnd) for rnd in planned.rounds]
            executed = regroup(planned, backend, limit)
            assert transfers(executed) == transfers(planned)
            assert executed.nrounds == len(executed.rounds)
            # The pieces of a lowered round count as one group (TestSplit has them).
            groups = [rnd.members for rnd in executed.rounds if rnd.piece == 0]
            boundaries.add(tuple(groups))
            assert [i for g in groups for i in g] == list(range(planned.nrounds))
            for rnd in executed.rounds:
                group = rnd.members
                assert len({verdicts[i] for i in group}) == 1 and rnd.index == group[0]
                if rnd.pieces > 1:
                    continue
                assert round_protocol(backend, rnd) == verdicts[group[0]]
                if len(group) == 1:
                    assert rnd is planned.rounds[group[0]]
                    continue
                assert limit is None or sum(staged[i] for i in group) <= limit
                assert rnd.max_round_bytes == sum(staged[i] for i in group)
                assert rnd.bytes_out == sum(planned.rounds[i].bytes_out for i in group)
                assert [lane.peer for lane in rnd.sends] == sorted({l.peer for l in rnd.sends})
                for lane in rnd.all_sends() + rnd.all_recvs():
                    assert lane.nbytes == sum(part.nbytes for part in lane.parts)
            # Greedy: a group stopped growing only at a verdict change or the cap.
            for left, right in zip(groups, groups[1:]):
                assert verdicts[left[0]] != verdicts[right[0]] or (
                    limit is not None and sum(staged[i] for i in left) + staged[right[0]] > limit
                )
        assert len(boundaries) == 1, "ranks disagree on group boundaries"

    def test_nothing_to_merge_returns_the_schedule_itself(self):
        for plan in (ring_plan(5), dense_plan(3)):  # one planned round
            for s in plan.schedules:
                for backend in ("alltoallw", "p2p", "auto", "bounded"):
                    assert regroup(s, backend) is s
                    assert regroup(s, backend).rounds[0] is s.rounds[0]
        mixed = mixed_plan().schedules[0]  # two rounds, two protocols
        assert regroup(mixed, "auto") is mixed
        e1 = e1_plan().schedules[0]  # two rounds, one protocol: no room
        assert regroup(e1, "auto", e1.rounds[0].max_round_bytes) is e1
        # Over any limit, but lanes one row tall: nothing to cut either.
        assert regroup(e1, "alltoallw", limit_bytes=1) is e1

    def test_e1_merges_into_one_message_per_peer(self):
        plan = e1_plan()
        for s in plan.schedules:
            merged = regroup(s, "auto")
            assert merged.nrounds == 1 and s.nrounds == 2  # the plan is untouched
            (rnd,) = merged.rounds
            assert rnd.members == (0, 1) and rnd.chunk_index is None
            assert rnd.message_count == len({l.peer for r in s.rounds for l in r.sends})
            assert merged.total_bytes_out == s.total_bytes_out
            assert merged.total_self_bytes == s.total_self_bytes


class TestSplit:
    """The splitting direction of ``regroup``: a round over the limit runs as
    k piece-rounds that tile every lane, k and the cuts alike on every rank."""

    @given(
        seed=st.integers(0, 5000),
        nprocs=st.integers(1, 6),
        backend=st.sampled_from(["alltoallw", "p2p", "auto", "bounded"]),
        divisor=st.sampled_from([2, 3, 5, 16, 10**6]),
    )
    @settings(max_examples=120, deadline=None)
    def test_pieces_tile_every_lane_and_agree_on_every_rank(self, seed, nprocs, backend, divisor):
        domain, owns, needs = random_problem(seed, nprocs=nprocs)
        plan = compute_global_plan(owns, needs, 4)
        staged, _ = budgets(plan)
        limit = max(staged, default=0) // divisor
        shapes = set()
        for planned in plan.schedules:
            executed = regroup(planned, backend, limit)
            assert transfers(executed) == transfers(planned)  # tiled exactly, disjoint
            shapes.add(tuple((r.members, r.piece, r.pieces) for r in executed.rounds))
            for rnd in executed.rounds:
                (index,) = rnd.members if rnd.pieces > 1 else (rnd.index,)
                whole = planned.rounds[index]
                if rnd.pieces == 1:
                    # Whole rounds fit, or no lane of theirs has a second row.
                    assert rnd.max_round_bytes <= limit or whole.max_lane_rows == 1
                    continue
                k = rnd.pieces
                assert staged[index] > limit
                assert round_protocol(backend, rnd) == round_protocol(backend, whole)
                assert k == min(-(-staged[index] // max(1, limit // 2)), whole.max_lane_rows)
                assert (rnd.index, rnd.chunk_index) == (whole.index, whole.chunk_index)
                lanes = rnd.all_sends() + rnd.all_recvs()
                # No piece-round is staged above its share plus a row per lane.
                row_bytes = sum(lane.nbytes // lane.region.dims[-1] for lane in lanes)
                assert rnd.max_round_bytes == -(-staged[index] // k)
                assert rnd.peak_bytes() <= rnd.max_round_bytes + row_bytes
                for lane in lanes:
                    assert lane.nbytes == lane.region.volume() * 4 and not lane.parts
        assert len(shapes) == 1, "ranks disagree on pieces"

    def test_only_rounds_over_the_limit_are_cut(self):
        for s in slab_to_tile_plan(4).schedules:
            (rnd,) = s.rounds
            for backend in ("alltoallw", "p2p", "auto", "bounded"):
                assert regroup(s, backend, rnd.max_round_bytes) is s
                assert regroup(s, backend, None) is s
                # Half the limit per piece: twice the pieces the ratio suggests.
                assert regroup(s, backend, rnd.max_round_bytes // 4).nrounds == 8

    def test_a_lane_shorter_than_k_sits_pieces_out(self):
        # Rank 0's chunk is 8 rows for rank 0 itself and 2 rows for rank 1.
        owns = [[Box((0, 0), (4, 10))], []]
        needs = [Box((0, 0), (4, 8)), Box((0, 8), (4, 2))]
        plan = compute_global_plan(owns, needs, element_size=4)
        (rnd,) = plan.schedules[0].rounds
        assert (rnd.max_round_bytes, rnd.max_lane_rows) == (160, 8)
        pieces = [regroup(s, "bounded", 40).rounds for s in plan.schedules]
        assert [len(p) for p in pieces] == [8, 8]
        for sender, receiver in zip(*pieces):
            assert [l.region for l in sender.sends] == [l.region for l in receiver.recvs]
            assert sender.self_send.region == sender.self_recv.region  # one row each
        assert [len(p.sends) for p in pieces[0]] == [0, 0, 0, 1, 0, 0, 0, 1]


class TestLanes:
    def test_ring_lanes_and_bytes(self):
        for rank, schedule in enumerate(ring_plan(4).schedules):
            assert (schedule.rank, schedule.nrounds) == (rank, 1)
            rnd = schedule.rounds[0]
            # One remote send (to the rank that needs my cell), one remote recv.
            assert [lane.peer for lane in rnd.sends] == [(rank - 1) % 4]
            assert [lane.peer for lane in rnd.recvs] == [(rank + 1) % 4]
            assert (rnd.bytes_out, rnd.bytes_in) == (4, 4)
            assert rnd.self_send is None and rnd.self_recv is None
            assert (rnd.partners, rnd.message_count, schedule.message_count) == (2, 1, 1)

    def test_self_lane_split_out(self):
        # Rank 0 keeps its own cell: the transfer is a self lane, not a message.
        plan = compute_global_plan(
            [[Box((0,), (1,))], [Box((1,), (1,))]], [Box((0,), (2,)), None], element_size=8
        )
        schedule = plan.schedules[0]
        rnd = schedule.rounds[0]
        assert rnd.self_send.nbytes == 8 and rnd.sends == []
        assert [lane.peer for lane in rnd.recvs] == [1]
        assert rnd.self_bytes == schedule.total_self_bytes == 8

    def test_bind_attaches_datatypes_to_a_copy(self):
        """Datatypes live on the executed rounds a mapping builds, not on the plan."""
        plan = dense_plan(3)
        descriptor = DataDescriptor.create(3, DataLayout.DATA_TYPE_1D, np.float32)
        (rows,) = plan_ranks(Declarations.from_boxes(
            [s.own_chunks for s in plan.schedules], [s.need for s in plan.schedules]), 4, ranks=[0])
        mapping = local_mapping(rows, None, descriptor)
        (rnd,) = executed_rounds(mapping, "alltoallw", True)
        assert all(lane.datatype is not None for lane in rnd.all_sends() + rnd.all_recvs())
        # Dense per-peer tables, prebuilt, with the self lane on the diagonal.
        assert rnd.sendtypes[0] is rnd.self_send.datatype
        assert rnd.recvtypes == [lane.datatype for lane in rnd.all_recvs()]
        assert len(rnd.sendtypes) == 3 and len(rnd.recvtypes) == 3
        # The plan itself stays the cost-model form: geometry only.
        for schedule in plan.schedules + [mapping.schedule]:
            for unbound in schedule.rounds:
                assert all(l.datatype is None for l in unbound.all_sends() + unbound.all_recvs())
                assert unbound.sendtypes is None
        assert mapping.schedule == plan.schedules[0]
        assert (mapping.own_chunks, mapping.need) == (plan.schedules[0].own_chunks, Box((0,), (3,)))


class TestAccounting:
    @pytest.mark.parametrize("plan", [slab_to_tile_plan(2), slab_to_tile_plan(7), e1_plan()])
    def test_bytes_conserved_round_by_round(self, plan):
        # Rounds are synchronized: a lane sent in round k is received in round k.
        assert plan.total_bytes_moved() > 0
        for k in range(plan.nrounds):
            rounds = [s.rounds[k] for s in plan.schedules]
            assert sum(r.bytes_out for r in rounds) == sum(r.bytes_in for r in rounds)

    def test_self_bytes_never_on_the_wire(self):
        for schedule in slab_to_tile_plan(4).schedules:
            for rnd in schedule.rounds:
                assert schedule.rank not in {l.peer for l in rnd.sends + rnd.recvs}
                assert rnd.self_send is None or rnd.self_send.peer == schedule.rank
                assert rnd.peak_bytes("zerocopy") == rnd.self_bytes
