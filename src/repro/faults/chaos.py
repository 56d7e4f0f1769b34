"""Chaos runner: one seeded loop, five scenarios, the full stack underneath.

:func:`run_chaos` is the only sweep there is.  For run ``i`` it derives the
plan seed ``seed + i``, asks the chosen scenario (:data:`SCENARIOS`) for a
:class:`Case` — labels, a :class:`~repro.faults.plan.FaultPlan` or none, a
staging budget or none, a world size and a launch callable — runs it under
the plan and the budget, and demands one of exactly these endings:

* **bitwise-correct output** — :data:`OK`, or :data:`RECOVERED` when a rank
  died and the survivors shrank and finished;
* **degraded by policy** (:data:`DEGRADED`) — frames dropped or staled,
  stale checkpoint restores, viewers shed: deliberate, counted, typed;
* **a clean, typed error** (:data:`TYPED_ERROR`) — an
  :class:`~repro.mpisim.errors.MpiSimError` subclass naming what gave up
  (crash, exhausted retries, unhealable corruption, a per-op deadline on a
  dropped message, a ``MemoryBudgetError``).

A hang (:class:`~repro.mpisim.executor.SpmdHangError`), a bare untyped
exception, or silently wrong output is :data:`FAILED` and fails the sweep.
``python -m repro chaos`` drives this from the command line and CI.

This module imports the whole runtime and is therefore *not* re-exported
from :mod:`repro.faults` (the transport imports that package at module
level).
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from ..core.api import Redistributor
from ..core.box import Box
from ..core.engine import BACKENDS as ALL_BACKENDS
from ..core.schedule import compute_global_plan
from ..intransit.pipeline import PipelineConfig, PipelineResult, run_pipeline
from ..lbm.decompose import slab_box
from ..lbm.simulation import LbmConfig
from ..mpisim.comm import Communicator
from ..mpisim.errors import MpiSimError, RankCrashError
from ..mpisim.executor import RankFailure, run_spmd
from ..mpisim.transport import TRANSPORT_PACKED, TRANSPORT_SHM, TRANSPORT_ZEROCOPY
from ..resilience import ResilientRedistributor
from ..utils.membudget import MEMORY_BUDGET, budget_scope
from ..volren.decompose import grid_boxes, grid_shape
from .injector import FAULTS, INJECTED, fault_plan
from .plan import FaultPlan
from .policy import ReliabilityPolicy

__all__ = ["SCENARIOS", "ChaosReport", "ChaosRun", "run_chaos"]

BACKENDS = ("alltoallw", "p2p", "auto")

#: executor × transport combinations the message sweep cycles through.  The
#: process executor runs the shm transport (its only bulk transport); crash
#: and pipeline runs stay on the thread executor — their recovery machinery
#: (buddy checkpoints on ``fabric.shared``) needs one address space.
COMBOS = (
    ("thread", TRANSPORT_PACKED),
    ("thread", TRANSPORT_ZEROCOPY),
    ("process", TRANSPORT_SHM),
)

#: Resize sweeps stay on the thread executor — the schedule mixes grows
#: (rank spawn) and shrinks, and the point is the resize protocol under
#: transient faults, not the transport matrix.
RESIZE_COMBOS = COMBOS[:2]

#: Memory-chaos combos: thread executor + staged transport only.  The
#: budget ledger lives in this process, and only staged payloads consume
#: budgeted staging memory (zero-copy rounds stage nothing).
MEMORY_COMBOS = COMBOS[:1]

#: Memory-chaos backends — all four: every one runs a round whose staged
#: estimate exceeds the budget in pieces, and surfaces the ledger's typed
#: ``MemoryBudgetError`` where no cut fits.
MEMORY_BACKENDS = ALL_BACKENDS

#: Field the plain exchange redistributes (slab → tile), and the memory
#: sweep's larger one: at 4 ranks its lanes are 256 KiB in 128 rows, so even
#: the tightest budget (15 % of the peak: 14 piece-rounds) cuts every lane —
#: sub-round lowering is forced, not only ledger checks.
FIELD = (16, 8)
MEMORY_FIELD = (1024, 512)

#: Redistribution budgets sweep from the plan's worst round down to this
#: fraction of it as the run index advances — the "shrinking budget" axis.
MEMORY_MIN_FRACTION = 0.15

#: Exchange generations per run, and resize-chaos geometry: exchange epochs
#: per run and how far above ``nprocs`` the seeded schedule may grow the
#: world (spawn headroom).
GENERATIONS = 3
RESIZE_GENERATIONS = 6
RESIZE_HEADROOM = 2

#: Outcome labels.
OK = "ok"  # bitwise-correct output, all faults absorbed
RECOVERED = "recovered"  # a rank crashed; survivors shrank and finished bitwise-correct
DEGRADED = "degraded"  # completed by dropping/staling frames or stale restores
TYPED_ERROR = "typed-error"  # a clean MpiSimError subclass surfaced
FAILED = "failed"  # hang, bare exception, or silent corruption
OUTCOMES = (OK, RECOVERED, DEGRADED, TYPED_ERROR, FAILED)

#: Every ``PIPELINE_EVERY``-th run of a transport scenario drives the
#: in-transit pipeline instead of the plain redistribution workload.
PIPELINE_EVERY = 5

#: Watchdog budget for one chaos run: short enough that a hang fails fast,
#: long enough that injected delays and backoff never trip it spuriously.
DEADLOCK_TIMEOUT_S = 8.0

#: Recovery policy installed with every chaos run's fault plan: a tight
#: per-op deadline so a dropped message surfaces in under a second, and
#: short backoffs so a 50-run sweep stays fast.
CHAOS_POLICY = ReliabilityPolicy(
    max_retries=3,
    backoff_base_s=0.0005,
    backoff_cap_s=0.005,
    op_deadline_s=1.0,
)


class ChaosVerificationError(AssertionError):
    """The run 'succeeded' but produced wrong bytes or left the system
    unhealthy — the one outcome the fault fabric must never allow."""


@dataclass
class ChaosRun:
    """Outcome of one randomized schedule."""

    index: int
    seed: int
    workload: str  # "redistribute" | "pipeline" | "resize" | "pipeline-resize" | "edge-storm"
    backend: str
    transport: str
    outcome: str  # one of OUTCOMES
    executor: str = "thread"  # "thread" | "process" | "asyncio"
    error: str = ""  # exception type (and message head) when not OK
    injected: int = 0  # faults the plan actually fired (edge: clients that reported)
    duration_s: float = 0.0
    budget_bytes: int = 0  # staging budget applied (0 = unbudgeted run)
    peak_bytes: int = 0  # measured staging peak under that budget
    stats: dict = field(default_factory=dict)  # fault-layer / edge counter snapshot

    @property
    def passed(self) -> bool:
        return self.outcome != FAILED

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}

    def log_line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        line = (
            f"[{mark}] run {self.index:3d} seed {self.seed} "
            f"{self.workload:<12} {self.backend:<9} {self.executor:<7} "
            f"{self.transport:<8} {self.outcome:<11} inj={self.injected:<3d} "
            f"{self.duration_s:.2f}s"
        )
        if self.budget_bytes:
            staged = self.stats.get("allocs", 0)
            line += f" bud={self.budget_bytes} peak={self.peak_bytes} staged={staged}"
        if "clients" in self.stats:
            behaviors = sorted({c["behavior"] for c in self.stats["clients"]})
            line += f" [{','.join(behaviors)}]"
        return line + (f"  {self.error}" if self.error else "")


@dataclass
class ChaosReport:
    """Aggregate over a chaos sweep; ``passed`` is the CI gate."""

    runs: list[ChaosRun] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.runs) and all(run.passed for run in self.runs)

    def count(self, outcome: str) -> int:
        return sum(1 for run in self.runs if run.outcome == outcome)

    def summary(self) -> str:
        lines = [
            f"chaos: {len(self.runs)} runs — {self.count(OK)} ok, "
            f"{self.count(RECOVERED)} recovered, {self.count(DEGRADED)} "
            f"degraded, {self.count(TYPED_ERROR)} typed errors, "
            f"{self.count(FAILED)} failed"
        ]
        for run in self.runs:
            if not run.passed:
                lines.append(
                    f"  FAILED run {run.index} (seed {run.seed}, {run.workload}, "
                    f"{run.backend}/{run.transport}): {run.error}"
                )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Machine-readable sweep summary (``python -m repro chaos --json``)."""
        return {
            "passed": self.passed,
            "counts": {outcome: self.count(outcome) for outcome in OUTCOMES},
            "runs": [run.to_dict() for run in self.runs],
        }


# -- workloads ----------------------------------------------------------------


def _reference(nx: int, ny: int) -> np.ndarray:
    """Global field with a unique value per cell (bitwise comparisons)."""
    return np.arange(nx * ny, dtype=np.float32).reshape(ny, nx)


def _extract(field: np.ndarray, box: Box) -> np.ndarray:
    """The view of ``field`` (whose corner is the origin) that ``box`` covers."""
    ox, oy = box.offset
    h, w = box.np_shape()
    return field[oy : oy + h, ox : ox + w]


def _slab_to_tile(comm: Communicator, nx: int, ny: int) -> tuple[Box, Box]:
    """This rank's (own row slab, needed tile) on the current communicator."""
    shape = (nx, ny)
    need = grid_boxes(shape, grid_shape(comm.size, shape))[comm.rank]
    return slab_box(nx, ny, comm.size, comm.rank), need


def _verify_generation(red, reference, own_boxes, need_box, generation) -> list:
    """One verified exchange: reference × generation in, ``gather_need``,
    compare bitwise against the needed tile.

    Data is regenerated for *every* current own box (adopted ones
    included), so a recovered run is checked against the no-fault
    reference.  Regions a recovery restored from an older checkpoint epoch
    (``stale_boxes``) are excused from the comparison — the caller reports
    them as degradation.  Returns the own buffers it exchanged.
    """
    scale = np.float32(generation)
    buffers = [
        np.ascontiguousarray(_extract(reference, box)) * scale for box in own_boxes
    ]
    out = red.gather_need(buffers, fill=-1.0)
    expect = _extract(reference, need_box) * scale
    for box in red.stale_boxes if isinstance(red, ResilientRedistributor) else ():
        overlap = box.intersect(need_box)
        if overlap is not None:
            window = overlap.relative_to(need_box)
            _extract(expect, window)[...] = _extract(out, window)
    if not np.array_equal(out, expect):
        raise ChaosVerificationError(
            f"rank {red.comm.rank} generation {generation}: exchange output "
            f"does not match the reference (silent corruption)"
        )
    return buffers


def _exchange_worker(
    comm: Communicator, nx: int, ny: int, backend: str, transport: str,
    resilient: bool = False, schedule: tuple = (),
) -> tuple[int, bool, int]:
    """Slab-to-tile redistribution, verified bitwise every generation.

    ``resilient`` — or a resize ``schedule`` to apply — runs the
    crash-surviving, resizable :class:`ResilientRedistributor` instead of
    the plain one.  Returns ``(recoveries, degraded, resizes applied)``.
    """
    engine = dict(ndims=2, dtype=np.float32, backend=backend, transport=transport)
    if resilient or schedule:
        rr = ResilientRedistributor(comm, **engine)
        generations = RESIZE_GENERATIONS if schedule else GENERATIONS
        return _resilient_epochs(rr, None, nx, ny, generations, schedule)
    own_box, need_box = _slab_to_tile(comm, nx, ny)
    red = Redistributor(comm, **engine)
    red.setup(own=[own_box], need=need_box)
    reference = _reference(nx, ny)
    for generation in range(1, GENERATIONS + 1):
        _verify_generation(red, reference, [own_box], need_box, generation)
    return 0, False, 0


def _resilient_epochs(
    rr: ResilientRedistributor, joined, nx: int, ny: int, generations: int,
    schedule: tuple,
) -> tuple[int, bool, int]:
    """The resilient epoch loop: stayers run it from the start, spawned
    joiners enter it at the members' epoch (``joined`` is their
    :class:`ResizeResult`), leavers return out of it.

    Every generation's slab-to-tile exchange is verified bitwise; every
    scheduled resize additionally verifies the migrated slab bitwise on
    every member — a resize that lands wrong bytes is silent corruption
    and fails the run.
    """
    reference = _reference(nx, ny)
    sched = dict(schedule)
    applied, degraded = 0, False

    def settle(resized) -> None:
        if resized is not None:
            migrated = resized.data.reshape(resized.own.np_shape())
            expect = _extract(reference, resized.own) * np.float32(rr.epoch)
            if not np.array_equal(migrated, expect):
                raise ChaosVerificationError(
                    f"rank {rr.comm.rank}: resize to {rr.comm.size} ranks "
                    f"migrated wrong bytes (silent corruption)"
                )
        own, need = _slab_to_tile(rr.comm, nx, ny)
        rr.setup([own], need)

    settle(joined)
    while rr.epoch < generations:
        buffers = _verify_generation(
            rr, reference, rr.own_boxes, rr.need_box, rr.epoch + 1
        )
        degraded = degraded or bool(rr.stale_boxes)
        target = sched.get(rr.epoch)
        if target is not None and target != rr.comm.size:
            resized = rr.resize(
                target,
                buffers,
                lambda rank, n: slab_box(nx, ny, n, rank),
                worker=_resilient_epochs,
                worker_args=(nx, ny, generations, schedule),
            )
            applied += 1
            if not resized.member:
                return rr.recoveries, degraded, applied
            settle(resized)
    return rr.recoveries, degraded, applied


def _seeded_walk(meta: random.Random, current, options: list, steps: int) -> list:
    """``steps`` seeded choices from ``options``, each differing from the last."""
    walk = []
    for _ in range(steps):
        current = meta.choice([option for option in options if option != current])
        walk.append(current)
    return walk


def _resize_schedule(plan_seed: int, nprocs: int) -> tuple:
    """Seeded ``(epoch, new_n)`` points; every point changes the size."""
    meta = random.Random(plan_seed * 7919 + 17)
    points = sorted(meta.sample(range(1, RESIZE_GENERATIONS), k=2))
    sizes = list(range(2, nprocs + RESIZE_HEADROOM + 1))
    return tuple(zip(points, _seeded_walk(meta, nprocs, sizes, len(points))))


def _pipeline_resize_schedule(plan_seed: int) -> tuple:
    """Seeded ``(frame, m, n)`` re-splits for an elastic pipeline run."""
    meta = random.Random(plan_seed * 104729 + 3)
    splits = [(2, 2), (3, 1), (2, 1), (4, 1), (3, 2)]
    return tuple(
        (frame, *split)
        for frame, split in zip((1, 3), _seeded_walk(meta, (3, 2), splits, 2))
    )


def _pipeline_config(
    backend: str, frame_drop: str, m: int = 2, steps: int = 10, **overrides
) -> PipelineConfig:
    """The chaos pipeline run: m + 2 ranks, ``steps / 5`` frames of a 32×16
    lattice.  Crash runs override ``m=3`` (one simulation-rank death still
    leaves m' >= n) and ``on_rank_loss="shrink"``; elastic runs a seeded
    ``resize_schedule`` over twice the steps.
    """
    return PipelineConfig(
        lbm=LbmConfig(nx=32, ny=16), m=m, n=2, steps=steps, output_every=5,
        backend=backend, frame_drop=frame_drop, frame_deadline_s=0.5, **overrides,
    )


def _in_flight(config: PipelineConfig) -> tuple[int, int]:
    """The frame messages a pipeline rank may hold at once — one per
    (variable, simulation rank) for each of the last frame or two — and
    their bytes, each charged as a full float64 field."""
    frames = 2 * max(1, len(config.variables)) * config.m
    return frames, frames * config.lbm.nx * config.lbm.ny * np.dtype(np.float64).itemsize


def _pipeline_worker(comm: Communicator, config: PipelineConfig):
    result = run_pipeline(comm, config)
    # Degraded-mode leak check: abandoned-frame stragglers must be purged,
    # not left to accumulate in the fabric's mailboxes.  The bound allows a
    # straggler per (variable, sim rank) for a final in-flight frame or two
    # (a message can land after the end-of-run sweep); unbounded growth
    # over a long skip/stale run trips this immediately.
    world = comm.world_rank_of(comm.rank)
    bound, bound_bytes = _in_flight(config)
    held = [("queued messages", comm.fabric.mailbox_depth(world_rank=world), bound)]
    if MEMORY_BUDGET.active:
        # Staging-budget counterpart of the mailbox bound: every frame this
        # rank staged must have been released by delivery or by the
        # abandoned-frame purge, except charges still held by the straggler
        # allowance above (one full-field frame per allowed message).
        held.append(("budgeted bytes", MEMORY_BUDGET.used_bytes(world), bound_bytes))
    for what, amount, limit in held:
        if amount > limit:
            raise ChaosVerificationError(
                f"leak: rank {comm.rank} still holds {amount} {what} after a "
                f"{config.frame_drop!r} pipeline run (bound {limit}); "
                f"abandoned frames are not being purged and released"
            )
    return result


# -- classification -----------------------------------------------------------


def _classify_failure(exc: BaseException) -> tuple[str, str]:
    """Map an escaped exception to (outcome, description)."""
    original = exc.original if isinstance(exc, RankFailure) else exc
    head = str(original).splitlines()[0][:160] if str(original) else ""
    label = f"{type(original).__name__}: {head}"
    # Hangs, ChaosVerificationError and anything bare or untyped fail the run.
    return (TYPED_ERROR if isinstance(original, MpiSimError) else FAILED), label


def _classify(scheduled: int, results: list) -> str:
    """Outcome of an exchange or pipeline run no exception escaped from.

    Beyond per-rank bitwise checks (raised inside the workers), require
    that an exchange applied its whole resize schedule: rank 0 stays a
    member throughout (every target is >= 2), so its counter must equal
    the ``scheduled`` number of resizes.
    """
    survivors = [r for r in results if not isinstance(r, RankCrashError)]
    if isinstance(survivors[0], PipelineResult):
        root = next((r for r in survivors if r.role == "analysis_root"), None)
        if root is None:
            # The root died on its last ops, after every peer had finished:
            # nobody was left to rebuild its ledger, so the run's only
            # outcome is the (typed) crash itself.
            raise next(r for r in results if isinstance(r, RankCrashError))
        degraded = root.frames_dropped or root.frames_stale
        recoveries = root.recoveries
    else:
        degraded = any(stale for _, stale, _ in survivors)
        recoveries = any(recovered for recovered, _, _ in survivors)
        applied = max(resizes for _, _, resizes in survivors)
        if applied != scheduled:
            raise ChaosVerificationError(
                f"resize schedule only partially applied: {applied} of "
                f"{scheduled} resizes"
            )
    if degraded:
        return DEGRADED
    if recoveries or len(survivors) < len(results):
        return RECOVERED
    return OK


# -- scenarios ----------------------------------------------------------------


def _fault_counts() -> tuple[int, dict]:
    """The fault layer's ``(injected, stats)``."""
    stats = FAULTS.stats.snapshot()
    return sum(stats.get(kind, 0) for kind in INJECTED), stats


@dataclass
class Case:
    """What a scenario hands the runner for one run."""

    workload: str
    backend: str
    executor: str
    transport: str
    world_size: int
    #: Runs the workload and returns its outcome label, or raises.
    launch: Callable[[], str]
    plan: Optional[FaultPlan] = None
    budget_bytes: int = 0
    #: ``(injected, stats)`` of the run, read after ``launch`` returned or
    #: raised; the transport scenarios read the fault layer.
    observe: Callable[[], tuple[int, dict]] = _fault_counts


def _spmd(world_size: int, worker, *args, scheduled: int = 0, **spmd) -> Callable[[], str]:
    """A launch callable: ``worker`` on ``world_size`` ranks under the
    chaos watchdog, its per-rank results classified."""
    return lambda: _classify(
        scheduled,
        run_spmd(world_size, worker, *args, deadlock_timeout=DEADLOCK_TIMEOUT_S, **spmd),
    )


def _transport_case(
    index: int,
    nprocs: int,
    plan: Callable[[str, int], FaultPlan],
    *,
    backends: tuple = BACKENDS,
    combos: tuple = COMBOS,
    resilient: bool = False,
    shape: tuple = FIELD,
    schedule: tuple = (),
    pipeline: Optional[dict] = None,
) -> Case:
    """The case the four transport scenarios share.

    Run ``index`` cycles through ``backends`` × ``combos``; every
    :data:`PIPELINE_EVERY`-th run drives the in-transit pipeline
    (alternating the ``skip`` and ``stale`` frame-drop policies, configured
    with the ``pipeline`` overrides) instead of the plain redistribution
    (of ``shape``, through the resize ``schedule`` if there is one).
    ``plan(workload, world_size)`` builds the run's fault plan for the
    world it will actually run on.
    """
    backend = backends[index % len(backends)]
    executor, transport = combos[(index // len(backends)) % len(combos)]
    is_pipeline = index % PIPELINE_EVERY == PIPELINE_EVERY - 1
    if executor == "process" and (resilient or is_pipeline):
        # Crash recovery and the pipeline need the shared-memory blackboard
        # (buddy checkpoints); keep those on threads.
        executor, transport = "thread", TRANSPORT_PACKED
    if is_pipeline:
        drop = "skip" if (index // PIPELINE_EVERY) % 2 == 0 else "stale"
        config = _pipeline_config(backend, drop, **(pipeline or {}))
        workload = "pipeline-resize" if config.resize_schedule else "pipeline"
        world_size = config.m + config.n
        launch = _spmd(
            world_size, _pipeline_worker, config, resilient=resilient, executor=executor
        )
    else:
        workload, world_size = ("resize" if schedule else "redistribute"), nprocs
        launch = _spmd(
            nprocs, _exchange_worker, *shape, backend, transport, resilient, schedule,
            scheduled=len(schedule), resilient=resilient, executor=executor,
            spawn_slots=nprocs + RESIZE_HEADROOM if schedule else 0,
        )
    return Case(
        workload, backend, executor, transport, world_size, launch,
        plan=plan(workload, world_size),
    )


def _probe(case: Case) -> list[int]:
    """One fault-free, unbudgeted run of ``case`` under an empty plan: the
    transport ops each rank performs."""
    clean = FaultPlan(seed=0, nranks=case.world_size)
    with fault_plan(clean, CHAOS_POLICY), budget_scope(None):
        case.launch()
        return [FAULTS.op_count(rank) for rank in range(case.world_size)]


def _message(runs: int, ops: int, nprocs: int):
    """The full fault menu — delays, drops, transient send/recv failures,
    corruption, round-entry faults, the odd crash — against every
    engine × executor × transport combination."""
    return lambda index, plan_seed: _transport_case(
        index, nprocs, lambda _, world: FaultPlan.random(plan_seed, world, ops=ops)
    )


def _crash(runs: int, ops: int, nprocs: int):
    """One scripted death per run and nothing else — one victim, one kill
    point — against the crash-surviving workloads
    (:class:`ResilientRedistributor`, the shrink-mode pipeline).  The kill
    point is drawn below the *victim's* op count in a fault-free probe of
    the workload (a rank's count depends on its role; a point past the end
    would never fire), so every run loses its rank and must end
    :data:`RECOVERED`, :data:`DEGRADED` by policy, or typed."""

    def build(index: int, plan) -> Case:
        return _transport_case(
            index, nprocs, plan,
            resilient=True,
            # m=3 so a single simulation-rank death still leaves m' >= n.
            pipeline=dict(m=3, on_rank_loss="shrink"),
        )

    def crash_plan(plan_seed: int, workload: str, world: int) -> FaultPlan:
        meta = random.Random(plan_seed)
        victim = meta.randrange(world)
        return FaultPlan(
            seed=plan_seed,
            nranks=world,
            ops=ops,
            crash_rank=victim,
            crash_at_op=meta.randrange(3, max(4, min(ops, op_counts[workload][victim]))),
        )

    probes = [build(index, lambda _, world: None) for index in (0, PIPELINE_EVERY - 1)]
    op_counts = {probe.workload: _probe(probe) for probe in probes}
    return lambda index, plan_seed: build(index, partial(crash_plan, plan_seed))


def _resize(runs: int, ops: int, nprocs: int):
    """Self-healing fault families only (no crashes, no drops) against the
    voluntary resize path: a seeded mid-epoch schedule of grows that spawn
    ranks and shrinks that retire them through
    :meth:`ResilientRedistributor.resize`, plus elastic pipeline runs
    (a ``resize_schedule``).  Every generation — and every
    migrated slab — must be bitwise-correct or surface a typed error."""

    return lambda index, plan_seed: _transport_case(
        index, nprocs,
        lambda _, world: FaultPlan.random(
            plan_seed, world, ops=ops, allow_crash=False, allow_drop=False
        ),
        combos=RESIZE_COMBOS,
        schedule=_resize_schedule(plan_seed, nprocs),
        pipeline=dict(
            m=3, steps=20, resize_schedule=_pipeline_resize_schedule(plan_seed)
        ),
    )


def _memory(runs: int, ops: int, nprocs: int):
    """Every run executes under a staging
    :class:`~repro.utils.membudget.MemoryBudget` read off its own plan, no
    probe run: a redistribution's shrinks from the worst planned round
    (``max_round_bytes``) down to :data:`MEMORY_MIN_FRACTION` of it across
    the sweep, and a pipeline's is what its frames in flight may stage
    (:func:`_in_flight`; halo rows and frame slabs cannot be cut into
    pieces, so there only the seeded faults bite).  The plans draw
    self-healing families plus seeded ``alloc`` faults, and the backend
    cycle adds ``bounded``.  Acceptable endings are bitwise-correct output
    (every backend runs an over-budget round in pieces), degraded-by-policy
    frames, or a typed ``MemoryBudgetError`` where no cut fits — never an
    OOM kill or a hang."""
    slab_to_tile = compute_global_plan(
        [[slab_box(*MEMORY_FIELD, nprocs, rank)] for rank in range(nprocs)],
        grid_boxes(MEMORY_FIELD, grid_shape(nprocs, MEMORY_FIELD)),
        element_size=4,
    )
    worst_round = max(slab_to_tile.staged)
    pipeline = _in_flight(_pipeline_config(ALL_BACKENDS[0], "skip"))[1]

    def case(index: int, plan_seed: int) -> Case:
        case = _transport_case(
            index, nprocs,
            lambda _, world: FaultPlan.random(
                plan_seed, world, ops=ops,
                allow_crash=False, allow_drop=False, allow_alloc=True,
            ),
            backends=MEMORY_BACKENDS,
            combos=MEMORY_COMBOS,
            shape=MEMORY_FIELD,
        )
        # The shrinking axis: the worst round on run 0 down to
        # MEMORY_MIN_FRACTION of it on the last run.
        frac = 1.0 - (1.0 - MEMORY_MIN_FRACTION) * (index / max(1, runs - 1))
        case.budget_bytes = (
            pipeline if case.workload == "pipeline" else max(4096, int(worst_round * frac))
        )
        return case

    return case


def _edge(runs: int, clients: int):
    """Seeded storms of misbehaving clients (plus one cooperative viewer
    that must still be served) against a live hub + edge; see
    :mod:`repro.faults.edgechaos`."""
    # Deferred: edgechaos imports this module's outcome labels, and the
    # transport scenarios have no use for the serving stack.
    from .edgechaos import storm

    def case(index: int, plan_seed: int) -> Case:
        stats: dict = {"clients": []}
        return Case(
            "edge-storm", "serve", "asyncio", "tcp", 1,
            partial(storm, plan_seed, clients, stats),
            observe=lambda: (len(stats["clients"]), stats),
        )

    return case


#: The scenario table — everything ``run_chaos`` can sweep.  Each entry is
#: ``(cases, takes)``: ``cases(runs, **taken)`` probes whatever it must,
#: once, and returns ``case(index, plan_seed) -> Case``; ``takes`` names
#: the arguments (of ``ops`` / ``nprocs`` / ``clients``) the scenario reads.
SCENARIOS = {
    "message": (_message, ("ops", "nprocs")),
    "crash": (_crash, ("ops", "nprocs")),
    "resize": (_resize, ("ops", "nprocs")),
    "memory": (_memory, ("ops", "nprocs")),
    "edge": (_edge, ("clients",)),
}

#: Sweep arguments: what an omitted one means, and the least that makes sense.
_DEFAULTS = {"runs": 50, "ops": 200, "nprocs": 4, "clients": 5}
_MINIMUM = {"runs": 1, "ops": 1, "nprocs": 2, "clients": 1}


# -- the runner ---------------------------------------------------------------


def run_chaos(
    scenario: str = "message",
    seed: int = 0,
    runs: int = _DEFAULTS["runs"],
    ops: Optional[int] = None,
    nprocs: Optional[int] = None,
    clients: Optional[int] = None,
    log=None,
) -> ChaosReport:
    """Sweep ``runs`` seeded cases of ``scenario``; see the module docstring.

    ``ops`` (the fault horizon in transport ops per rank, default 200) and
    ``nprocs`` (ranks per run, default 4) belong to the four transport
    scenarios, ``clients`` (misbehaving clients per storm, default 5) to
    ``edge``.  Arguments are checked here, once: an unknown scenario, an
    argument the scenario does not take, ``runs < 1``, ``ops < 1``,
    ``nprocs < 2`` or ``clients < 1`` raise :class:`ValueError`.
    """
    if scenario not in SCENARIOS:
        raise ValueError(
            f"unknown chaos scenario {scenario!r}; options: {tuple(SCENARIOS)}"
        )
    cases, takes = SCENARIOS[scenario]
    given = {"ops": ops, "nprocs": nprocs, "clients": clients}
    for name in given:
        if given[name] is not None and name not in takes:
            raise ValueError(f"the {scenario} scenario takes no {name} argument")
    taken = {name: _DEFAULTS[name] if given[name] is None else given[name] for name in takes}
    for name, value in {"runs": runs, **taken}.items():
        if value < _MINIMUM[name]:
            raise ValueError(f"chaos needs {name} >= {_MINIMUM[name]}, got {value}")
    case_for = cases(runs, **taken)
    report = ChaosReport()
    for index in range(runs):
        plan_seed = seed + index
        case = case_for(index, plan_seed)
        assert case.plan is None or case.plan.nranks == case.world_size
        run = ChaosRun(
            index, plan_seed, case.workload, case.backend, case.transport,
            outcome=FAILED, executor=case.executor, budget_bytes=case.budget_bytes,
        )
        started = time.perf_counter()
        try:
            # An unbudgeted case runs with the staging budget off, not under
            # whatever DDR_MEM_BUDGET_MB the environment happens to set.
            with (
                fault_plan(case.plan, CHAOS_POLICY) if case.plan else nullcontext()
            ), budget_scope(limit_bytes=case.budget_bytes or None):
                try:
                    run.outcome = case.launch()
                finally:
                    run.injected, run.stats = case.observe()
                    if case.budget_bytes:
                        run.peak_bytes = MEMORY_BUDGET.peak_bytes()
        except Exception as exc:  # noqa: BLE001 - classified; bare ones fail the run
            run.outcome, run.error = _classify_failure(exc)
        run.duration_s = time.perf_counter() - started
        report.runs.append(run)
        if log is not None:
            log(run.log_line())
    return report
