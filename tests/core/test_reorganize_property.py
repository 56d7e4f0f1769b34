"""The central DDR correctness property, as one differential oracle:

    after reorganization, every cell of every rank's need buffer equals the
    value that cell had in the (conceptual) global array — a plain numpy
    crop — regardless of how the owned chunks tiled the domain and of which
    backend, transport and memory budget moved the data.

Tilings are produced by recursive bisection so they are always mutually
exclusive and complete (the paper's §III-B precondition); needs are
arbitrary sub-boxes and may overlap across ranks.  Tiles are dealt to the
ranks at random — several chunks on one rank, none on another — so most
plans have several rounds, and the budget axis decides how the executed
rounds group them (``repro.core.schedule.RankPlan.executed``): all in one
(``none``), some (``between`` one planned round and the whole exchange) or
one at a time, the over-budget ones cut into piece-rounds (``below`` a
single round).  The layout axis decides where a rank's chunks live: in
arrays of their own, or as views of one rank-local array, where a merged
lane's blocks can sit at one stride and its copy program moves them in one
call.  Each case exchanges twice through one fresh mapping: cold (no copy
program yet: each is built on its first copy) and warm (replayed).  The executor axis is covered by re-running this
file under ``DDR_EXECUTOR=process`` (CI leg).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import Box, Redistributor, compute_global_plan
from repro.mpisim import BYTE, RankFailure, default_executor
from repro.mpisim.errors import MemoryBudgetError
from repro.utils.membudget import budget_scope
from tests.conftest import spmd

#: Per-axis multiplier of a "large" domain, by dimensionality: about 2^17
#: cells, so lanes are many rows tall and staged through shm segments.
LARGE_AXIS_SCALE = {1: 1 << 14, 2: 1 << 6, 3: 1 << 3}


def bisect_tiling(domain: Box, count: int, rng: np.random.Generator) -> list[Box]:
    """Split ``domain`` into exactly ``count`` mutually exclusive boxes."""
    boxes = [domain]
    while len(boxes) < count:
        splittable = [i for i, b in enumerate(boxes) if max(b.dims) > 1]
        if not splittable:
            break
        index = int(rng.choice(splittable))
        box = boxes.pop(index)
        axes = [a for a in range(box.ndim) if box.dims[a] > 1]
        axis = int(rng.choice(axes))
        cut = int(rng.integers(1, box.dims[axis]))
        lo_dims = list(box.dims)
        lo_dims[axis] = cut
        hi_dims = list(box.dims)
        hi_dims[axis] = box.dims[axis] - cut
        hi_off = list(box.offset)
        hi_off[axis] += cut
        boxes.append(Box(box.offset, tuple(lo_dims)))
        boxes.append(Box(tuple(hi_off), tuple(hi_dims)))
    return boxes


def random_subbox(domain: Box, rng: np.random.Generator) -> Box:
    offset = []
    dims = []
    for full_off, full_dim in zip(domain.offset, domain.dims):
        size = int(rng.integers(1, full_dim + 1))
        start = int(rng.integers(0, full_dim - size + 1))
        offset.append(full_off + start)
        dims.append(size)
    return Box(tuple(offset), tuple(dims))


def random_problem(seed: int, ndim: int = 2, nprocs: int = 4, scale: int = 1):
    """Seed -> (domain, owns per rank, need per rank): a random exact tiling
    dealt to the ranks at random, and one random need box each."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(rng.integers(2, 9)) * scale for _ in range(ndim))
    domain = Box((0,) * ndim, dims)
    tiles = bisect_tiling(domain, int(rng.integers(nprocs, 3 * nprocs + 1)), rng)
    assignment = rng.integers(0, nprocs, size=len(tiles))
    owns = [[tiles[i] for i in np.nonzero(assignment == r)[0]] for r in range(nprocs)]
    needs = [random_subbox(domain, rng) for _ in range(nprocs)]
    return domain, owns, needs


def crop(global_array: np.ndarray, domain: Box, region: Box) -> np.ndarray:
    """The plain numpy oracle: ``region``'s cells of the C-order global array
    (a trailing component axis, when present, rides along)."""
    starts = region.np_starts_within(domain)
    return global_array[tuple(slice(s, s + d) for s, d in zip(starts, region.np_shape()))]


def chunk_buffers(
    global_array: np.ndarray, domain: Box, boxes: list[Box], layout: str, spacing: int
) -> list[np.ndarray]:
    """A rank's chunk buffers, filled from the global array: ``separate``
    arrays, or (``one-array``) views of one rank-local array, chunk ``k`` at
    slot ``spacing * k`` of slots as large as the largest chunk."""
    crops = [crop(global_array, domain, box) for box in boxes]
    if layout == "separate":
        return [part.copy() for part in crops]
    slot = spacing * max((part.size for part in crops), default=0)
    stack = np.empty(slot * len(crops), global_array.dtype)
    buffers = []
    for k, part in enumerate(crops):
        buffers.append(stack[k * slot:k * slot + part.size].reshape(part.shape))
        buffers[-1][...] = part
    return buffers


@st.composite
def cases(draw):
    ndim = draw(st.integers(1, 3))
    thread = default_executor() != "process"  # the budget ledger is per process
    # A third of the cases pin the axes under which rounds really run in
    # pieces (a staged transport, a budget below one planned round) — at
    # every size: geometry is the only floor.
    lowering = thread and draw(st.sampled_from([False, False, True]))
    return dict(
        seed=draw(st.integers(0, 10_000)),
        ndim=ndim,
        nprocs=draw(st.integers(1, 8)),
        scale=draw(st.sampled_from([1, 1, LARGE_AXIS_SCALE[ndim]])),
        dtype=draw(st.sampled_from(["u1", "f4", "f8"])),
        components=draw(st.sampled_from([1, 3, 9])),
        backend=draw(st.sampled_from(["alltoallw", "p2p", "auto", "bounded"])),
        transport=draw(
            st.sampled_from(["packed", "shm"] if lowering else ["packed", "zerocopy", "shm"])
        ),
        budget="below" if lowering else draw(
            st.sampled_from(["none", "between", "below"] if thread else ["none"])
        ),
        layout=draw(st.sampled_from(["separate", "one-array"])),
    )


def uneven_problem(seed: int):
    """Four, three, no and two chunks on four ranks (four planned rounds,
    the last with one sender), 2-D, lanes hundreds of rows tall."""
    rng = np.random.default_rng(seed)
    domain = Box((0, 0), (384, 256))
    tiles = iter(bisect_tiling(domain, 9, rng))
    owns = [[next(tiles) for _ in range(count)] for count in (4, 3, 0, 2)]
    return domain, owns, [random_subbox(domain, rng) for _ in range(4)]


def run_case(
    seed, ndim, nprocs, scale, dtype, components, backend, transport, budget, problem=None,
    refusable=True, layout="separate",
):
    domain, owns, needs = problem or random_problem(seed, ndim, nprocs, scale)
    shape = domain.np_shape() + ((components,) if components > 1 else ())
    reference = (
        np.random.default_rng(seed).integers(0, 1 << 16, size=shape).astype(dtype)
    )

    def fn(comm):
        rank = comm.rank
        red = Redistributor(
            comm, ndims=ndim, dtype=dtype, components=components,
            backend=backend, transport=transport,
        )
        red.setup(own=owns[rank], need=needs[rank])
        # an odd seed spaces one-array chunks two slots apart
        buffers = chunk_buffers(reference, domain, owns[rank], layout, 1 + seed % 2)
        assert not red.mapping.types  # fresh: no datatype, so no copy program, yet
        for exchange in ("cold", "warm"):  # programs built as copies need them, then replayed
            out = red.gather_need(buffers, fill=7)
            if needs[rank] is None:
                assert out is None
            else:
                expect = crop(reference, domain, needs[rank])
                assert np.array_equal(out, expect), (exchange, rank, owns, needs)

    if budget == "none":
        spmd(nprocs, fn)
        return
    # Half the plan's worst-round staging estimate ("below"), or what the
    # worst round plus half of the others would stage ("between": rounds
    # merge, but not all of them).  The only acceptable ends are
    # bitwise-equal output or the ledger's typed refusal (a lane one row
    # tall cannot be cut, and the ledger is charged as messages happen to be
    # in flight, so which one is timing-dependent).
    plan = compute_global_plan(owns, needs, np.dtype(dtype).itemsize * components)
    staged = plan.staged
    peak = max(staged, default=0)
    limit = max(1, peak // 2 if budget == "below" else peak + (sum(staged) - peak) // 2)
    with budget_scope(limit_bytes=limit):
        try:
            spmd(nprocs, fn)
        except RankFailure as failure:
            assert refusable and isinstance(failure.original, MemoryBudgetError), failure


@given(case=cases())
# A direct transport stages only the self-copy, which differs by rank: a
# budget there must not move any rank's group boundaries.
@example(
    case=dict(
        seed=0, ndim=2, nprocs=2, scale=1, dtype="u1", components=1,
        backend="alltoallw", transport="zerocopy", budget="below", layout="separate",
    )
)
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_redistribution_matches_numpy_crop(case):
    run_case(**case)


@pytest.mark.parametrize("backend", ["alltoallw", "p2p", "auto", "bounded"])
def test_single_rank_and_many_ranks(backend):
    for nprocs, seed in ((1, 7), (8, 11)):
        run_case(seed, 2, nprocs, 1, "f4", 1, backend, None, "none")


@pytest.mark.parametrize("budget", ["none", "between", "below"])
@pytest.mark.parametrize("transport", ["packed", "zerocopy", "shm"])
@pytest.mark.parametrize("backend", ["alltoallw", "p2p", "auto", "bounded"])
def test_uneven_multichunk_ownership(backend, transport, budget):
    if budget != "none" and default_executor() == "process":
        pytest.skip("the budget ledger is per process")
    for seed in (3, 5):
        run_case(
            seed, 2, 4, 1, "f4", 1, backend, transport, budget, problem=uneven_problem(seed)
        )


def round_robin_problem():
    """``redist_rounds`` in small: single z-planes of an 8 x 6 x 12 domain
    dealt round-robin to four ranks, each needing a quarter column, so every
    merged lane's blocks are one plane each of a rank's chunks."""
    domain = Box((0, 0, 0), (8, 6, 12))
    owns = [[Box((0, 0, z), (8, 6, 1)) for z in range(rank, 12, 4)] for rank in range(4)]
    needs = [Box((4 * (rank % 2), 3 * (rank // 2), 0), (4, 3, 12)) for rank in range(4)]
    return domain, owns, needs


@pytest.mark.parametrize("layout", ["separate", "one-array"])
@pytest.mark.parametrize("budget", ["none", "between", "below"])
@pytest.mark.parametrize("transport", ["packed", "zerocopy", "shm"])
@pytest.mark.parametrize("backend", ["alltoallw", "p2p", "auto", "bounded"])
def test_round_robin_planes_in_every_layout(backend, transport, budget, layout):
    """One-array planes, one slot apart (even seed: the blocks lengthen the
    plane axis) or two (odd seed: a block axis), copy each lane in one call;
    separate planes concatenate."""
    if budget != "none" and default_executor() == "process":
        pytest.skip("the budget ledger is per process")
    for seed in (0, 1):
        run_case(
            seed, 3, 4, 1, "f4", 1, backend, transport, budget,
            problem=round_robin_problem(), layout=layout,
        )


def state_mover_problem():
    """What the pipeline's state mover hands the engine, in small: three,
    one and two chunks on three of four ranks — one chunk a single row tall,
    so its lanes sit pieces out — and a rank that needs nothing."""
    domain = Box((0, 0), (6, 12))
    rows = [(0, 5), (5, 1), (6, 2), (8, 1), (9, 2), (11, 1)]
    tiles = [Box((0, y), (6, h)) for y, h in rows]
    owns = [[tiles[0], tiles[3], tiles[5]], [tiles[1]], [], [tiles[2], tiles[4]]]
    needs = [Box((0, 0), (3, 12)), Box((3, 0), (3, 7)), None, Box((2, 4), (4, 8))]
    return domain, owns, needs


@pytest.mark.parametrize("transport", ["packed", "shm"])
@pytest.mark.parametrize("backend", ["alltoallw", "p2p", "auto", "bounded"])
def test_lowered_rounds_move_interleaved_state(backend, transport):
    if default_executor() == "process":
        pytest.skip("the budget ledger is per process")
    problem = state_mover_problem()
    plan = compute_global_plan(problem[1], problem[2], 8 * 9)
    # Half the worst round: round 0 runs in four pieces, and rank 1's chunk —
    # one row tall — is in only one of them.
    limit = max(plan.staged) // 2
    executed = plan.rank_plans([1])[0].executed(backend, limit, BYTE, plan.element_size, {})
    assert [(r.members, r.piece, r.pieces) for r in executed] == [
        ((0,), 0, 4), ((0,), 1, 4), ((0,), 2, 4), ((0,), 3, 4), ((1,), 0, 1), ((2,), 0, 1)
    ]
    assert [bool(r.sends or r.self_send) for r in executed[:4]] == [False, False, False, True]
    run_case(0, 2, 4, 1, "f8", 9, backend, transport, "below", problem=problem)


def halo_problem():
    """Ghost zones as DDR needs (paper §III-B: "multiple processes can receive
    overlapping data"): four row slabs of a 16x24 domain, each rank needing
    its own slab widened by one cell on every side and clipped to the domain,
    so neighbouring needs overlap by two rows."""
    domain = Box((0, 0), (16, 24))
    slabs = [Box((0, 6 * rank), (16, 6)) for rank in range(4)]

    def widened(box):
        lo = [max(o - 1, d) for o, d in zip(box.offset, domain.offset)]
        hi = [min(e + 1, d) for e, d in zip(box.end, domain.end)]
        return Box(tuple(lo), tuple(h - l for l, h in zip(lo, hi)))

    return domain, [[slab] for slab in slabs], [widened(slab) for slab in slabs]


@pytest.mark.parametrize("budget", ["none", "below"])
@pytest.mark.parametrize("backend", ["alltoallw", "p2p"])
def test_overlapping_needs_get_every_ghost_cell(backend, budget):
    if budget == "below" and default_executor() == "process":
        pytest.skip("the budget ledger is per process")
    problem = halo_problem()
    needs = problem[2]
    assert [needs[r].intersect(needs[r + 1]).dims for r in range(3)] == [(16, 2)] * 3
    if budget == "below":
        # Half the one planned round: it runs in pieces of its own protocol.
        plan = compute_global_plan(problem[1], needs, 8)
        limit = max(plan.staged) // 2
        executed = plan.rank_plans([1])[0].executed(backend, limit, BYTE, 8, {})
        assert executed[0].pieces > 1
    transport = "packed" if budget == "below" else "zerocopy"
    run_case(0, 2, 4, 1, "f8", 1, backend, transport, budget, problem=problem, refusable=False)
