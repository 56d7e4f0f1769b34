"""M-to-N in-transit streaming (paper §IV-B, Figure 4).

"Data is sent from M simulation ranks to N analysis ranks."  The stand-in
for the paper's GLEAN-style transport: both applications live on one world
communicator (sim ranks first, analysis ranks after), and each simulation
rank streams its slab to a designated analysis rank.  Like the paper's
10-to-4 illustration, sim ranks are block-distributed over analysis ranks,
so uniform mapping is *not* required ("in-transit streaming can be achieved
without uniform mapping").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.box import Box
from ..lbm.decompose import slab_box
from ..mpisim.comm import Communicator
from ..mpisim.errors import ProcessFailedError, RevokedError
from ..volren.decompose import split_extent

#: Tag base for frame payloads.  The tag encodes (frame, variable):
#: ``FRAME_TAG_BASE + frame * MAX_VARIABLES + var_index``.
FRAME_TAG_BASE = 1000
MAX_VARIABLES = 8


def frame_tag(frame_index: int, var_index: int = 0) -> int:
    if not (0 <= var_index < MAX_VARIABLES):
        raise ValueError(f"var_index must be in [0, {MAX_VARIABLES}), got {var_index}")
    return FRAME_TAG_BASE + frame_index * MAX_VARIABLES + var_index


def sim_to_analysis_map(m: int, n: int) -> list[list[int]]:
    """``map[a]`` = the simulation ranks streaming to analysis rank ``a``.

    Contiguous blocks, sized within one of each other — Figure 4's
    3/3/2/2 split for M=10, N=4.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got {m}, {n}")
    if n > m:
        raise ValueError(f"more analysis ranks ({n}) than simulation ranks ({m})")
    return [
        list(range(offset, offset + size)) for offset, size in split_extent(m, n)
    ]


def analysis_rank_for(sim_rank: int, m: int, n: int) -> int:
    """Which analysis rank receives ``sim_rank``'s slab."""
    for a, members in enumerate(sim_to_analysis_map(m, n)):
        if sim_rank in members:
            return a
    raise ValueError(f"sim rank {sim_rank} out of range for m = {m}")


@dataclass(frozen=True)
class StreamTopology:
    """World-communicator layout: sim ranks [0, m), analysis [m, m+n)."""

    m: int
    n: int
    nx: int
    ny: int

    def __post_init__(self) -> None:
        sim_to_analysis_map(self.m, self.n)  # validates m, n

    def world_size(self) -> int:
        return self.m + self.n

    def is_sim(self, world_rank: int) -> bool:
        return world_rank < self.m

    def sim_slab(self, sim_rank: int) -> Box:
        """The 2-D region sim rank owns, in paper order (x, y)."""
        return slab_box(self.nx, self.ny, self.m, sim_rank)

    def incoming_slabs(self, analysis_rank: int) -> list[tuple[int, Box]]:
        """(sim_rank, slab) pairs this analysis rank will receive."""
        members = sim_to_analysis_map(self.m, self.n)[analysis_rank]
        return [(s, self.sim_slab(s)) for s in members]


class StreamSender:
    """Simulation-side endpoint: pushes one slab per frame."""

    def __init__(self, world: Communicator, topology: StreamTopology, sim_rank: int) -> None:
        self.world = world
        self.topology = topology
        self.sim_rank = sim_rank
        self.dest_world = topology.m + analysis_rank_for(sim_rank, topology.m, topology.n)
        self.slab = topology.sim_slab(sim_rank)

    def send_frame(self, frame_index: int, field: np.ndarray, var_index: int = 0) -> None:
        """Stream one slab of a scalar field (rows x nx, float32)."""
        expected = self.slab.np_shape()
        if field.shape != expected:
            raise ValueError(f"slab field shape {field.shape} != expected {expected}")
        payload = np.ascontiguousarray(field, dtype=np.float32)
        self.world.Send(payload, self.dest_world, tag=frame_tag(frame_index, var_index))


class StreamReceiver:
    """Analysis-side endpoint: collects the slabs of one frame.

    Receive slabs are double-buffered per receiver: the steady-state hot
    path allocates nothing (the BufferCache/StagingPool discipline of the
    DDR core), and the slabs most recently *returned* to the caller — who
    may hold references, e.g. the pipeline's ``frame_drop="stale"`` policy
    — are never written by the next receive.  A returned slab set stays
    valid until the second-next successful receive of the same variable.
    """

    def __init__(self, world: Communicator, topology: StreamTopology, analysis_rank: int) -> None:
        self.world = world
        self.topology = topology
        self.analysis_rank = analysis_rank
        self.sources = topology.incoming_slabs(analysis_rank)
        #: var_index -> [front slab set, back slab set]; receives land in
        #: the back set and the sets flip only on full success.
        self._slab_sets: dict[int, list[list[np.ndarray]]] = {}
        self._front: dict[int, int] = {}
        #: (source_rank, tag) pairs whose receive was abandoned on a
        #: deadline; their straggler slabs are purged from the mailbox by
        #: later calls (and by the pipeline's end-of-run sweep).
        self._abandoned: dict[tuple[int, int], None] = {}
        #: stragglers drained so far (observability + leak assertions)
        self.purged_slabs = 0

    @property
    def owned_chunks(self) -> list[Box]:
        """The slabs this rank will own before redistribution (DDR input)."""
        return [slab for _, slab in self.sources]

    def _back_slabs(self, var_index: int) -> list[np.ndarray]:
        sets = self._slab_sets.get(var_index)
        if sets is None:
            sets = self._slab_sets[var_index] = [
                [np.empty(slab.np_shape(), dtype=np.float32) for _, slab in self.sources]
                for _ in range(2)
            ]
            self._front[var_index] = 0
        return sets[1 - self._front[var_index]]

    def _flip(self, var_index: int) -> None:
        self._front[var_index] = 1 - self._front[var_index]

    def purge_abandoned(self) -> int:
        """Drain straggler slabs of previously abandoned frames.

        Each abandoned receive is remembered by its unique (source, tag);
        once the straggler shows up in the mailbox it is discarded — and
        its transport resources released — keeping a long degraded run's
        mailbox bounded.  Entries whose slab has not arrived yet (or whose
        producer died) are retried on the next call.  Returns the number
        of slabs drained this call.
        """
        drained = 0
        for source, tag in list(self._abandoned):
            purged = self.world.purge(source=source, tag=tag)
            if purged:
                del self._abandoned[(source, tag)]
                drained += purged
        self.purged_slabs += drained
        return drained

    def abandoned_count(self) -> int:
        """Abandoned receives whose stragglers have not been drained yet."""
        return len(self._abandoned)

    def recv_frame(self, frame_index: int, var_index: int = 0) -> list[np.ndarray]:
        """Receive every incoming slab of one frame, in chunk order."""
        self.purge_abandoned()
        out = self._back_slabs(var_index)
        for buffer, (sim_rank, _) in zip(out, self.sources):
            self.world.Recv(
                buffer, source=sim_rank, tag=frame_tag(frame_index, var_index)
            )
        self._flip(var_index)
        return out

    def try_recv_frame(
        self,
        frame_index: int,
        var_index: int = 0,
        deadline_s: float = 5.0,
    ) -> Optional[list[np.ndarray]]:
        """Like :meth:`recv_frame`, bounded by ``deadline_s``.

        Returns the slabs in chunk order, or ``None`` if any slab is still
        missing when the deadline expires — the degraded-mode entry point
        behind the pipeline's frame-drop policy.  Abandoning the wait is
        safe because tags are unique per (frame, variable): a slab that
        straggles in later sits in the mailbox under its own tag and can
        never cross-match another frame's receive.  Senders are eager
        (buffered at post time), so nobody blocks on the abandoned frame —
        and the straggler itself is recorded and drained by
        :meth:`purge_abandoned` on a later call, so abandoned slabs cannot
        accumulate in the mailbox over a long degraded run.

        A *crashed* producer is not a straggler: if a pending source rank
        is known dead, this raises :class:`ProcessFailedError` (and
        :class:`RevokedError` on a revoked world) instead of waiting out
        the deadline, so rank loss reaches the recovery machinery rather
        than masquerading as an ordinary slow frame.
        """
        self.purge_abandoned()
        out = self._back_slabs(var_index)
        tag = frame_tag(frame_index, var_index)
        requests = [
            self.world.Irecv(buffer, source=sim_rank, tag=tag)
            for buffer, (sim_rank, _) in zip(out, self.sources)
        ]
        deadline = time.monotonic() + deadline_s
        pending = list(zip(requests, (rank for rank, _ in self.sources)))
        while pending:
            fabric = self.world.fabric
            fabric.check_abort()
            if fabric.hazard:
                if self.world.revoked:
                    raise RevokedError(
                        "stream world communicator was revoked while waiting "
                        f"for frame {frame_index}"
                    )
                for _, sim_rank in pending:
                    source_world = self.world.world_rank_of(sim_rank)
                    if fabric.is_dead(source_world):
                        raise ProcessFailedError(
                            f"producer rank {sim_rank} (world {source_world}) "
                            f"crashed; frame {frame_index} will never arrive"
                        )
            pending = [
                (request, rank) for request, rank in pending if not request.test()
            ]
            if not pending:
                break
            if time.monotonic() >= deadline:
                # Deliver what already arrived (releasing any transport
                # resources its messages hold) and remember the rest so
                # their stragglers get purged when they land.
                for request, rank in zip(requests, (r for r, _ in self.sources)):
                    if (request, rank) not in pending and request.test():
                        request.wait()
                for _, rank in pending:
                    self._abandoned[(rank, tag)] = None
                # Drain immediately: a straggler that landed between the
                # last test and the deadline is already holding staged
                # bytes (and a budget charge); releasing it now — instead
                # of on the *next* receive — keeps degraded-mode resident
                # staging bounded by the truly in-flight slabs.
                self.purge_abandoned()
                return None
            time.sleep(0.001)
        for request in requests:
            request.wait()
        self._flip(var_index)
        return out
