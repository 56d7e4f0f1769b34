"""The full in-transit analysis pipeline (paper §IV-B).

Simulation ranks run the slab-decomposed LBM and stream vorticity slabs to
the analysis ranks every ``output_every`` iterations; analysis ranks use
DDR to reshape slices into near-square rectangles (Figure 5), render them
through the blue-white-red colormap, assemble the frame, and save it as a
compressed JPEG instead of raw floats — the storage trade Table IV
quantifies.

There is one per-rank driver and one frame loop.  The sim/analysis split
can change while the run is live — at the frames of a ``resize_schedule``
or after a rank crash (``on_rank_loss="shrink"``) — and both go through the
same ``_reconfigure``; DESIGN.md "Pipeline reconfiguration" describes the
protocol.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from ..core.api import Redistributor
from ..core.engine import check_backend
from ..io.raw import raw_frame_bytes, write_raw
from ..jpeg.encoder import encode_rgb
from ..lbm.decompose import slab_box
from ..lbm.distributed import DistributedLbm
from ..lbm.simulation import LbmConfig
from ..mpisim.comm import Communicator
from ..mpisim.errors import MpiSimError
from ..obs.tracer import TRACER
from ..resilience.checkpoint import CheckpointPolicy, restore, shared_store
from ..resilience.errors import ReconfigurationError
from ..resilience.redistributor import RESILIENCE_STATS, agree_failures, recoverable
from ..viz.colormaps import BLUE_WHITE_RED, GRAYSCALE
from ..viz.image import assemble_tiles, render_scalar_field
from ..volren.decompose import grid_boxes, grid_shape
from .stream import StreamReceiver, StreamSender, StreamTopology

#: Streamable simulation variables (paper §IV-B: "many other variables
#: (e.g. velocity, density, etc.) are required for computation and could
#: also be streamed and rendered, achieving similar data compression").
VARIABLES = ("vorticity", "density", "speed", "ux", "uy")

#: Frame-drop policies (``PipelineConfig.frame_drop``): what the consumer
#: does when a frame's slabs miss their receive deadline.
FRAME_DROP_FAIL = "fail"  # block forever (fabric watchdog backstop)
FRAME_DROP_SKIP = "skip"  # drop the frame, keep rendering later ones
FRAME_DROP_STALE = "stale"  # substitute the last good data for the region

FRAME_DROP_MODES = (FRAME_DROP_FAIL, FRAME_DROP_SKIP, FRAME_DROP_STALE)

#: Rank-loss policies (``PipelineConfig.on_rank_loss``): what the pipeline
#: does when a member rank *crashes* (as opposed to a frame going missing).
ON_RANK_LOSS_FAIL = "fail"  # typed error / abort (pre-resilience behaviour)
ON_RANK_LOSS_SHRINK = "shrink"  # reconfigure over the survivors and continue

ON_RANK_LOSS_MODES = (ON_RANK_LOSS_FAIL, ON_RANK_LOSS_SHRINK)

#: What a pool rank is currently doing (``PipelineResult.role`` reports the
#: analysis rank holding the ledger as ``"analysis_root"``).
ROLE_SIM = "sim"
ROLE_ANALYSIS = "analysis"
ROLE_PARKED = "parked"

#: Fabric.shared key for the simulation-state checkpoint store (kept apart
#: from the exchange-level buddy store of ResilientRedistributor).
STATE_STORE_KEY = "pipeline_state_store"

#: Reconfigurations one rank will attempt before giving up.
MAX_RECOVERIES = 3


@dataclass(frozen=True)
class PipelineConfig:
    """One in-transit run: M sim ranks + N analysis ranks on one world.

    ``raw_every_frames`` enables the paper's dual-frequency proposal (§IV-B
    closing discussion): "we could still output raw data every 100
    iterations, but additionally stream data every 10 iterations for visual
    analysis" — every frame is rendered to JPEG, and additionally every
    ``raw_every_frames``-th frame is counted (and, with ``save_dir``,
    written) as a raw float dump.

    ``frame_drop`` is the consumer's degraded mode when a frame's slabs
    miss their receive deadline (``frame_deadline_s``): ``"fail"`` blocks
    until the fabric watchdog fires (the pre-fault-fabric behaviour),
    ``"skip"`` abandons the frame and keeps rendering later ones,
    ``"stale"`` substitutes the last good data for the missing region so
    every frame still encodes.

    ``on_rank_loss`` selects the crash policy: ``"fail"`` keeps the
    pre-resilience behaviour (a dead rank surfaces as a typed error or an
    abort), ``"shrink"`` reconfigures the pipeline over the survivors —
    consumer loss re-partitions the analysis layout, producer loss
    restores the lost simulation slab from buddy checkpoints — and
    replays from the agreed rollback frame.  Buddy checkpoints retain every
    frame, so any rollback point is restorable.

    A ``resize_schedule`` enables *voluntary* elastic reconfiguration: it
    is a tuple of ``(frame, m, n)`` triples, every frame inside the run,
    and at each scheduled frame the whole rank pool re-splits into ``m``
    simulation + ``n`` analysis ranks (either side may grow or shrink
    independently; ranks left over are parked until a later entry drafts
    them back).  Simulation state migrates onto the new slab
    decomposition through a components=9 DDR exchange on one persistent
    world-wide redistributor — each resize is a fresh ``LocalMapping``
    generation, the same lifecycle crash recovery uses.  When to resize
    is the caller's decision; the schedule only carries it.  A schedule
    composes with the frame-drop policies but not (yet) with
    ``on_rank_loss="shrink"``.
    """

    lbm: LbmConfig
    m: int
    n: int
    steps: int
    output_every: int
    quality: int = 75
    vorticity_limit: float = 0.05  # symmetric colormap range
    save_dir: Optional[Path] = None
    save_raw: bool = False
    keep_frames: bool = False  # retain rendered frames in the result (tests)
    raw_every_frames: Optional[int] = None  # dual-frequency output cadence
    variables: tuple[str, ...] = ("vorticity",)
    backend: Optional[str] = None  # exchange engine; None = DDR_BACKEND/default
    frame_drop: str = FRAME_DROP_FAIL
    frame_deadline_s: float = 5.0
    on_rank_loss: str = ON_RANK_LOSS_FAIL
    resize_schedule: Optional[tuple] = None  # ((frame, m, n), ...)

    def __post_init__(self) -> None:
        if self.steps < 1 or self.output_every < 1:
            raise ValueError("steps and output_every must be >= 1")
        if self.frame_drop not in FRAME_DROP_MODES:
            raise ValueError(
                f"unknown frame_drop {self.frame_drop!r}; choose one of "
                f"{FRAME_DROP_MODES}"
            )
        if self.on_rank_loss not in ON_RANK_LOSS_MODES:
            raise ValueError(
                f"unknown on_rank_loss {self.on_rank_loss!r}; choose one of "
                f"{ON_RANK_LOSS_MODES}"
            )
        if self.frame_deadline_s <= 0:
            raise ValueError("frame_deadline_s must be positive")
        if self.backend is not None:  # None: the process default
            check_backend(self.backend)
        if self.steps % self.output_every != 0:
            raise ValueError(
                f"steps ({self.steps}) must be a multiple of output_every "
                f"({self.output_every})"
            )
        if not self.variables:
            raise ValueError("at least one variable must be streamed")
        for name in self.variables:
            if name not in VARIABLES:
                raise ValueError(f"unknown variable {name!r}; options: {VARIABLES}")
        if self.resize_schedule is None:
            return
        if self.on_rank_loss == ON_RANK_LOSS_SHRINK:
            raise ValueError(
                'a resize_schedule does not compose with on_rank_loss="shrink" '
                "yet; pick one reconfiguration mode"
            )
        if not self.resize_schedule:
            raise ValueError("resize_schedule needs at least one (frame, m, n) triple")
        last_frame = 0
        for entry in self.resize_schedule:
            if len(entry) != 3:
                raise ValueError(f"resize_schedule entries are (frame, m, n); got {entry!r}")
            frame, m, n = entry
            if frame <= last_frame:
                raise ValueError(
                    "resize_schedule frames must be strictly increasing "
                    f"and >= 1; got frame {frame} after {last_frame}"
                )
            if frame >= self.n_frames:
                raise ValueError(
                    f"resize_schedule frame {frame} is never reached: the run "
                    f"has {self.n_frames} frames"
                )
            last_frame = frame
            if n < 1 or m < n:
                raise ValueError(f"resize to m={m}, n={n} violates m >= n >= 1")
            if m + n > self.m + self.n:
                raise ValueError(
                    f"resize to m={m}, n={n} exceeds the fixed rank pool of {self.m + self.n}"
                )

    @property
    def n_frames(self) -> int:
        return self.steps // self.output_every


@dataclass
class PipelineResult:
    """Totals collected on analysis rank 0 (``None`` fields elsewhere)."""

    role: str  # "sim" | "analysis" | "analysis_root" | "parked"
    frames: int = 0
    raw_bytes: int = 0  # what raw-at-every-frame WOULD cost (Table IV baseline)
    jpeg_bytes: int = 0
    dual_raw_bytes: int = 0  # raw dumps actually kept at the coarse cadence
    jpeg_bytes_by_variable: dict = field(default_factory=dict)
    frames_rendered: list = field(default_factory=list)
    frames_dropped: int = 0  # (frame, variable) pairs skipped (frame_drop="skip")
    frames_stale: int = 0  # (frame, variable) pairs rendered with stale data
    slabs_purged: int = 0  # abandoned-frame stragglers drained from the mailbox
    recoveries: int = 0  # shrink-mode reconfigurations this rank survived
    ranks_lost: int = 0  # members removed across those reconfigurations
    resizes: int = 0  # voluntary resize_schedule reconfigurations applied

    @property
    def data_reduction(self) -> float:
        """Fraction of storage saved by the processed output (Table IV)."""
        if self.raw_bytes == 0:
            return 0.0
        return 1.0 - self.jpeg_bytes / self.raw_bytes

    @property
    def dual_total_bytes(self) -> int:
        """Dual-frequency output: coarse raw dumps + every-frame JPEG."""
        return self.dual_raw_bytes + self.jpeg_bytes

    @property
    def dual_overhead(self) -> float:
        """Storage increase of dual output over raw-only at the coarse
        cadence — the paper's "only marginally increase data storage size"."""
        if self.dual_raw_bytes == 0:
            return 0.0
        return self.dual_total_bytes / self.dual_raw_bytes - 1.0


def run_pipeline(world: Communicator, config: PipelineConfig) -> PipelineResult:
    """SPMD entry point: call on every rank of a (m + n)-rank world."""
    if world.size != config.m + config.n:
        raise ValueError(
            f"world has {world.size} ranks; config needs {config.m + config.n}"
        )
    return _Pipeline(world, config).run()


class _Pipeline:
    """One rank's driver: one frame loop, one reconfiguration path.

    A rank simulates, analyses or is parked according to the two member
    lists (world ranks) handed to :meth:`_assume_roles`.  The current world
    communicator always orders its ranks simulation first, analysis next,
    parked last — the layout :class:`StreamTopology` addresses.  Both
    reconfiguration triggers (:meth:`_resize` at a scheduled frame,
    :meth:`_recover` after a crash) only work out new member lists, a
    restart frame and where the simulation state comes from, then call
    :meth:`_reconfigure`.  With neither armed the loop never leaves the
    roles it started in.
    """

    def __init__(self, world: Communicator, config: PipelineConfig) -> None:
        self.config = config
        self.world = world
        self.my_world = world.world_rank_of(world.rank)
        self.deadline_s = config.frame_deadline_s
        self.schedule = {f: (m, n) for f, m, n in (config.resize_schedule or ())}
        self.shrink = config.on_rank_loss == ON_RANK_LOSS_SHRINK
        if self.shrink:
            # Simulation state is checkpointed per frame; every frame must
            # stay restorable, so the policy retains all of them.
            self.policy = CheckpointPolicy(retain=None)
            self.store = shared_store(world.fabric, key=STATE_STORE_KEY)
        self.recoveries = 0
        self.ranks_lost = 0
        self.resizes = 0
        self.slabs_purged = 0
        self.ledger: dict = {}  # (frame, var_index) -> entry, analysis root only
        # Built at the first reconfiguration and kept: a reconfiguration is
        # a new mapping generation (or a retarget), not a new redistributor.
        self.mover: Optional[Redistributor] = None  # world-sized, LBM state
        self.red: Optional[Redistributor] = None  # analysis-side, per frame
        self.receiver: Optional[StreamReceiver] = None
        self._assume_roles(
            list(world.world_ranks[: config.m]), list(world.world_ranks[config.m :])
        )

    # -- roles ---------------------------------------------------------------

    def _assume_roles(self, sim_members: list, analysis_members: list) -> None:
        """Collective over the world: split it and build this rank's role."""
        config = self.config
        nx, ny = config.lbm.nx, config.lbm.ny
        self._retire_receiver()
        self.sim_members = sim_members
        self.analysis_members = analysis_members
        if self.my_world in sim_members:
            self.role, color = ROLE_SIM, 0
        elif self.my_world in analysis_members:
            self.role, color = ROLE_ANALYSIS, 1
        else:
            self.role, color = ROLE_PARKED, -1
        self.topology = StreamTopology(
            len(sim_members), len(analysis_members), nx, ny
        )
        self.sub = self.world.Split(color, key=self.world.rank)
        if self.role == ROLE_SIM:
            self.slab = self.topology.sim_slab(self.sub.rank)
            self.sender = StreamSender(self.world, self.topology, self.sub.rank)
            self.sim = DistributedLbm(self.sub, config.lbm)
        elif self.role == ROLE_ANALYSIS:
            self.receiver = StreamReceiver(self.world, self.topology, self.sub.rank)
            # The analysis layout: rectangles "as close to square as
            # possible" (paper: Figure 5), versus the simulation's
            # full-width slices.
            grid = grid_shape(len(analysis_members), (nx, ny))
            self.need = grid_boxes((nx, ny), grid)[self.sub.rank]
            if self.red is None:
                self.red = Redistributor(
                    self.sub, ndims=2, dtype=np.float32, backend=config.backend
                )
            else:
                self.red.retarget(self.sub)
            with TRACER.span("phase.ddr_setup", backend=self.red.backend):
                # once per role assignment; reused for every frame
                self.red.setup(own=self.receiver.owned_chunks, need=self.need)
            self.tile_buffer = np.empty(self.need.np_shape(), dtype=np.float32)
            # Degraded-mode state: the last good *input* slabs per variable
            # (zeros until a variable's first complete frame).  A rank whose
            # frame missed the deadline re-exchanges these, so the collective
            # DDR call stays joined on every rank and peers still receive
            # data for our region.
            self.last_slabs = {
                i: [
                    np.zeros(slab.np_shape(), dtype=np.float32)
                    for _, slab in self.receiver.sources
                ]
                for i in range(len(config.variables))
            }
            self.origin = (self.need.offset[1], self.need.offset[0])  # (y, x)

    def _retire_receiver(self) -> None:
        """Drain abandoned-frame stragglers before the receiver is dropped.

        Frames abandoned shortly before a re-split or the end of the run
        have no later receive call to purge them.  The wait is bounded — a
        straggler whose send was dropped outright by the fault layer will
        never arrive and must not stall the run — and pointless on a
        revoked world, where no further send can land.
        """
        receiver, self.receiver = self.receiver, None
        if receiver is None:
            return
        sweep_deadline = time.monotonic() + min(self.deadline_s, 1.0)
        while receiver.abandoned_count() and time.monotonic() < sweep_deadline:
            if receiver.purge_abandoned() == 0:
                if receiver.world.revoked:
                    break
                time.sleep(0.001)
        self.slabs_purged += receiver.purged_slabs

    # -- the frame loop ------------------------------------------------------

    def run(self) -> PipelineResult:
        frame = 0
        while frame < self.config.n_frames:
            try:
                boundary = self.schedule.get(frame)
                if boundary is not None:
                    self._resize(frame, *boundary)
                if self.role == ROLE_SIM:
                    self._sim_frame(frame)
                elif self.role == ROLE_ANALYSIS:
                    self._analysis_frame(frame)
                # Parked ranks idle until the next boundary's collectives.
                frame += 1
            except MpiSimError as exc:
                retry = self.shrink and self.recoveries < MAX_RECOVERIES
                if not (retry and recoverable(exc, self.world)):
                    raise
                frame = self._recover(frame)
        if self.shrink:
            # Clean exit: leave the liveness table so late agreements
            # elsewhere don't wait on us; our checkpoints stay readable (a
            # survivor can adopt and replay a retired producer's slab).
            self.world.fabric.mark_retired(self.my_world)
        self._retire_receiver()
        return self._result()

    def _sim_frame(self, frame: int) -> None:
        config = self.config
        if self.shrink:
            # Deposit *before* stepping (pure memory, cannot fault): the
            # state entering frame f is what a rollback to f must restore.
            holders = self.policy.holder_world_ranks(self.sub.rank, self.sim_members)
            self.store.deposit(
                self.my_world,
                frame,
                holders,
                [(self.slab, np.moveaxis(self.sim.interior, 0, -1))],
                retain=self.policy.retain,
            )
            RESILIENCE_STATS.incr("deposits")
        with TRACER.span("phase.sim_step", frame=frame):
            self.sim.step(config.output_every)
            fields = _sim_fields(self.sim, config.variables)
        for var_index, name in enumerate(config.variables):
            with TRACER.span("phase.stream_send", frame=frame, variable=name):
                self.sender.send_frame(frame, fields[name], var_index)

    def _analysis_frame(self, frame: int) -> None:
        config = self.config
        for var_index, name in enumerate(config.variables):
            # Receive under the frame-drop policy.  "fail" keeps the
            # original blocking semantics (fabric watchdog backstop); the
            # degraded modes bound the wait and carry on without the
            # frame's data.  Every rank still joins the redistribution and
            # gather below, so a local drop never desynchronises peers.
            status = "ok"
            with TRACER.span("phase.stream_recv", frame=frame, variable=name):
                if config.frame_drop == FRAME_DROP_FAIL:
                    slabs = self.receiver.recv_frame(frame, var_index)
                else:
                    slabs = self.receiver.try_recv_frame(
                        frame, var_index, self.deadline_s
                    )
                    if slabs is None:
                        status = (
                            "dropped" if config.frame_drop == FRAME_DROP_SKIP
                            else "stale"
                        )
                        if TRACER.enabled:
                            with TRACER.span(
                                "fault.frame_drop", frame=frame, variable=name,
                                policy=config.frame_drop,
                            ):
                                pass
            if status == "ok":
                self.last_slabs[var_index] = slabs
            else:
                # Frame loss is local: the exchange is collective over the
                # analysis ranks, so a rank whose receive timed out still
                # joins it, re-sending its last good slabs.  Peers keep
                # fresh data where they have it; only our region goes stale.
                slabs = self.last_slabs[var_index]
            with TRACER.span("phase.redistribute", frame=frame, variable=name):
                self.red.exchange(slabs, self.tile_buffer)  # per-frame, per-var DDR call

            tile_rgb: Optional[np.ndarray] = None
            if status != "dropped":
                with TRACER.span("phase.render", frame=frame, variable=name):
                    tile_rgb = _render_variable(self.tile_buffer, name, config)
            # The raw baseline tracks the first (primary) variable only,
            # matching Table IV's "one variable of interest".
            want_raw = (
                var_index == 0 and config.save_raw and self._is_raw_frame(frame)
            )
            raw_tile = (
                self.tile_buffer.copy() if want_raw and status != "dropped" else None
            )
            gathered = self.sub.gather(
                (self.origin, tile_rgb, raw_tile, status), root=0
            )
            if self.sub.rank == 0:
                assert gathered is not None
                self._record(frame, var_index, name, gathered, want_raw)

    def _is_raw_frame(self, frame: int) -> bool:
        return (
            self.config.raw_every_frames is None
            or frame % self.config.raw_every_frames == 0
        )

    def _record(
        self, frame: int, var_index: int, name: str, gathered: list, want_raw: bool
    ) -> None:
        """Root-side per-(frame, variable) ledger entry.

        Keyed writes make replay idempotent: a frame re-processed after a
        reconfiguration overwrites its earlier entry instead of counting
        twice.  Totals are assembled once the loop finishes.
        """
        config = self.config
        nx, ny = config.lbm.nx, config.lbm.ny
        statuses = [s for _, _, _, s in gathered]
        if "dropped" in statuses:
            # skip policy: the frame is lost; later frames keep coming.
            self.ledger[(frame, var_index)] = {"status": "dropped"}
            return
        entry: dict = {"status": "stale" if "stale" in statuses else "ok"}
        with TRACER.span("phase.encode", frame=frame, variable=name):
            frame_rgb = assemble_tiles(
                [(o, rgb) for o, rgb, _, _ in gathered], (ny, nx)
            )
            blob = encode_rgb(frame_rgb, quality=config.quality)
        entry["jpeg"] = len(blob)
        if var_index == 0 and config.keep_frames:
            entry["rgb"] = frame_rgb
        if config.save_dir is not None:
            directory = Path(config.save_dir)
            directory.mkdir(parents=True, exist_ok=True)
            suffix = "" if len(config.variables) == 1 else f"_{name}"
            (directory / f"frame_{frame:05d}{suffix}.jpg").write_bytes(blob)
            if want_raw and all(tf is not None for _, _, tf, _ in gathered):
                # Reassemble the full float field for the baseline path.
                raw = np.zeros((ny, nx), dtype=np.float32)
                for (r0, c0), _, tile_field, _ in gathered:
                    th, tw = tile_field.shape
                    raw[r0 : r0 + th, c0 : c0 + tw] = tile_field
                write_raw(directory / f"frame_{frame:05d}.raw", raw)
        self.ledger[(frame, var_index)] = entry

    # -- reconfiguration -----------------------------------------------------

    def _reconfigure(
        self,
        new_sim_members: list,
        new_analysis_members: list,
        restart_frame: int,
        state_boxes: list,
        state_buffers: list,
    ) -> None:
        """Move the run onto a new role split; collective over ``self.world``.

        ``state_boxes``/``state_buffers`` are the pieces of the global LBM
        state at ``restart_frame`` this rank contributes (empty for ranks
        that hold none).  Three steps, the same for every trigger:

        1. state migration — a components=9 DDR exchange from those pieces
           onto the new slab decomposition, as one ``migrate`` of the
           world-sized mover (the data move ``Redistributor.resize`` uses);
        2. ledger hand-off — the old analysis root, if it is still a
           member, broadcasts its ledger so the root role can land
           anywhere (keyed per frame, so a hand-off never double-counts);
        3. role rebuild via :meth:`_assume_roles`.
        """
        config = self.config
        world = self.world
        need = None
        if self.my_world in new_sim_members:
            need = slab_box(
                config.lbm.nx, config.lbm.ny, len(new_sim_members),
                new_sim_members.index(self.my_world),
            )
        with TRACER.span("resilience.state_migration", rank=self.my_world):
            if self.mover is None:
                # LBM populations are float64, 9 components.
                self.mover = Redistributor(
                    world, ndims=2, dtype=np.float64, components=9
                )
            elif self.mover.comm is not world:
                self.mover.retarget(world)
            migrated = self.mover.migrate(
                state_boxes, need, state_buffers, validate=False
            )
        old_root = self.analysis_members[0]
        ledger: dict = {}
        if old_root in world.world_ranks:
            ledger = world.bcast(
                self.ledger if self.my_world == old_root else None,
                root=world.world_ranks.index(old_root),
            )
        self._assume_roles(new_sim_members, new_analysis_members)
        if self.role == ROLE_SIM:
            self.sim.f[:, 1:-1, :] = np.moveaxis(migrated, -1, 0)
            self.sim.step_count = restart_frame * config.output_every
        is_root = self.role == ROLE_ANALYSIS and self.sub.rank == 0
        self.ledger = ledger if is_root else {}

    def _resize(self, frame: int, new_m: int, new_n: int) -> None:
        """Scheduled trigger: re-split the pool to ``new_m`` + ``new_n``.

        The migration source is the live simulation state — not a
        checkpoint — so the resized run continues bit-exactly.
        """
        self.resizes += 1
        RESILIENCE_STATS.incr("pipeline_resizes")
        with TRACER.span(
            "resilience.pipeline_resize", frame=frame, m=new_m, n=new_n
        ):
            boxes, buffers = [], []
            if self.role == ROLE_SIM:
                boxes = [self.slab]
                buffers = [
                    np.ascontiguousarray(np.moveaxis(self.sim.interior, 0, -1))
                ]
            pool = self.world.world_ranks
            self._reconfigure(
                list(pool[:new_m]), list(pool[new_m : new_m + new_n]),
                frame, boxes, buffers,
            )

    def _recover(self, frame: int) -> int:
        """Crash trigger: revoke, agree, shrink, reconfigure over the
        survivors; returns the agreed rollback frame."""
        self.recoveries += 1
        RESILIENCE_STATS.incr("pipeline_recoveries")
        with TRACER.span("resilience.pipeline_recover", rank=self.my_world):
            dead, restart = agree_failures(self.world, frame)
            # The ledger lives on the analysis root; if it died, nothing
            # before the crash is accounted for, so everything replays.
            if self.analysis_members[0] in dead:
                restart = 0
            sim_members = [w for w in self.sim_members if w not in dead]
            analysis_members = [w for w in self.analysis_members if w not in dead]
            self.ranks_lost += len(dead)
            RESILIENCE_STATS.incr("ranks_lost", len(dead))
            if not analysis_members or len(sim_members) < len(analysis_members):
                raise ReconfigurationError(
                    "cannot reconfigure the pipeline over the survivors: "
                    f"{len(sim_members)} simulation and "
                    f"{len(analysis_members)} analysis ranks remain"
                )
            boxes, buffers = [], []
            if self.role == ROLE_SIM:
                boxes, buffers = self._checkpointed_state(restart, dead)
            # Roles are pinned to world ranks and shrink preserves order,
            # so simulation ranks still precede analysis ranks.
            self.world = self.world.shrink(dead=dead)
            self._reconfigure(sim_members, analysis_members, restart, boxes, buffers)
        return restart

    def _checkpointed_state(self, restart: int, dead: frozenset) -> tuple[list, list]:
        """This survivor's share of the global LBM state at frame
        ``restart``: each slab of the pre-crash decomposition whose
        ``CheckpointPolicy.adopter`` it is — its own, plus any dead (or
        retired) rank's it takes over — restored from the checkpoints."""
        config = self.config
        members = self.sim_members  # still the pre-crash decomposition
        crashed = self.world.fabric.dead_ranks()
        boxes, buffers = [], []
        for index in range(len(members)):
            if self.policy.adopter(index, members, dead) != self.my_world:
                continue
            box = slab_box(config.lbm.nx, config.lbm.ny, len(members), index)
            state, exact = restore(self.store, box, restart, crashed)
            if not exact:
                RESILIENCE_STATS.incr("stale_restores")
            boxes.append(box)
            buffers.append(state)
        return boxes, buffers

    # -- result assembly -----------------------------------------------------

    def _result(self) -> PipelineResult:
        config = self.config
        is_root = self.role == ROLE_ANALYSIS and self.sub.rank == 0
        result = PipelineResult(
            role="analysis_root" if is_root else self.role,
            recoveries=self.recoveries,
            ranks_lost=self.ranks_lost,
            resizes=self.resizes,
            slabs_purged=self.slabs_purged,
        )
        if self.role == ROLE_SIM:
            result.frames = config.n_frames
        if not is_root:
            return result
        nx, ny = config.lbm.nx, config.lbm.ny
        for frame in range(config.n_frames):
            result.frames += 1
            result.raw_bytes += raw_frame_bytes(nx, ny) * len(config.variables)
            if config.raw_every_frames is not None and self._is_raw_frame(frame):
                result.dual_raw_bytes += raw_frame_bytes(nx, ny)
            for var_index, name in enumerate(config.variables):
                entry = self.ledger.get((frame, var_index))
                if entry is None:
                    continue
                if entry["status"] == "dropped":
                    result.frames_dropped += 1
                    continue
                if entry["status"] == "stale":
                    result.frames_stale += 1
                result.jpeg_bytes += entry["jpeg"]
                result.jpeg_bytes_by_variable[name] = (
                    result.jpeg_bytes_by_variable.get(name, 0) + entry["jpeg"]
                )
                if var_index == 0 and config.keep_frames:
                    result.frames_rendered.append(entry["rgb"])
        return result


def _sim_fields(sim: DistributedLbm, names: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Compute the requested interior fields of one output step."""
    out: dict[str, np.ndarray] = {}
    need_macro = any(n in ("density", "speed", "ux", "uy") for n in names)
    if need_macro:
        rho, ux, uy = sim.macroscopics()
    for name in names:
        if name == "vorticity":
            out[name] = sim.vorticity().astype(np.float32)
        elif name == "density":
            out[name] = rho.astype(np.float32)
        elif name == "speed":
            out[name] = np.hypot(ux, uy).astype(np.float32)
        elif name == "ux":
            out[name] = ux.astype(np.float32)
        elif name == "uy":
            out[name] = uy.astype(np.float32)
        else:  # pragma: no cover - validated in PipelineConfig
            raise ValueError(name)
    return out


def _render_variable(
    field: np.ndarray, name: str, config: PipelineConfig
) -> np.ndarray:
    """Per-variable colormap choices (vorticity uses the paper's map)."""
    u0 = config.lbm.u0
    if name == "vorticity":
        limit = config.vorticity_limit
        return render_scalar_field(field, BLUE_WHITE_RED, -limit, limit, symmetric=True)
    if name == "ux":
        return render_scalar_field(field, BLUE_WHITE_RED, -2 * u0, 2 * u0, symmetric=True)
    if name == "uy":
        return render_scalar_field(field, BLUE_WHITE_RED, -u0, u0, symmetric=True)
    if name == "density":
        return render_scalar_field(field, GRAYSCALE, 0.9, 1.1, symmetric=False)
    if name == "speed":
        return render_scalar_field(field, GRAYSCALE, 0.0, 2 * u0, symmetric=False)
    raise ValueError(name)  # pragma: no cover - validated in PipelineConfig
