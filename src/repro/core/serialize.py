"""Persistence for computed plans.

At production scale the geometric planning in ``DDR_SetupDataMapping`` is
non-trivial (Table III's 216-rank round-robin schedule intersects 4096
chunks with 216 needs).  Since the mapping depends only on the declared
geometry, it can be computed once, saved as JSON, and reloaded by later
runs — an engineering extension the paper's "setup once" design invites.

A plan file is input from outside the program: :func:`plan_from_dict`
rebuilds the lanes through the planner's own assembly step and rejects
anything inconsistent with ``ValueError("corrupt plan: ...")`` rather than
letting it surface later as an ``IndexError`` or as wrongly moved cells.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import numpy as np

from .box import Box
from .descriptor import DataDescriptor
from .mapping import LocalMapping, attach_mapping, local_mapping
from .schedule import Declarations, ExchangeSchedule, GlobalPlan, Overlaps, assemble_plan

FORMAT_VERSION = 1


def _box_to_list(box: Optional[Box]) -> Optional[list[list[int]]]:
    if box is None:
        return None
    return [list(box.offset), list(box.dims)]


class _CorruptPlan(ValueError):
    def __init__(self, why: str) -> None:
        super().__init__(f"corrupt plan: {why}")


def _box_from_list(data: list, ndims: int) -> Box:
    offset, dims = data
    box = Box(tuple(offset), tuple(dims))
    if box.ndim != ndims:
        raise _CorruptPlan(f"{box} is {box.ndim}-D in a {ndims}-D plan")
    return box


def _recv_rows(schedule: ExchangeSchedule) -> list[list]:
    return [
        [rnd.index, lane.peer, _box_to_list(lane.region)]
        for rnd in schedule.rounds
        for lane in rnd.all_recvs()
    ]


def plan_to_dict(plan: GlobalPlan) -> dict:
    """Lossless JSON-safe representation of a :class:`GlobalPlan`."""
    return {
        "version": FORMAT_VERSION,
        "nprocs": plan.nprocs,
        "ndims": plan.ndims,
        "element_size": plan.element_size,
        "nrounds": plan.nrounds,
        "ranks": [
            {
                "rank": s.rank,
                "own": [_box_to_list(b) for b in s.own_chunks],
                "need": _box_to_list(s.need),
                "sends": [
                    [rnd.index, lane.peer, rnd.index, _box_to_list(lane.container),
                     _box_to_list(lane.region)]
                    for rnd in s.rounds
                    for lane in rnd.all_sends()
                ],
                "recvs": _recv_rows(s),
            }
            for s in plan.schedules
        ],
    }


def plan_from_dict(data: dict) -> GlobalPlan:
    """Inverse of :func:`plan_to_dict`; validates the version and every entry."""
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported plan format version {version!r}")
    try:
        return _plan_from_rows(data)
    except _CorruptPlan:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise _CorruptPlan(f"malformed entry ({exc!r})") from exc


def _plan_from_rows(data: dict) -> GlobalPlan:
    nprocs, ndims, nrounds = int(data["nprocs"]), int(data["ndims"]), int(data["nrounds"])
    ranks = data["ranks"]
    if len(ranks) != nprocs:
        raise _CorruptPlan(f"{len(ranks)} rank entries for {nprocs} ranks")
    owns: list[list[Box]] = []
    needs: list[Optional[Box]] = []
    for rank, entry in enumerate(ranks):
        if entry["rank"] != rank:
            raise _CorruptPlan(f"rank entry {rank} is labelled rank {entry['rank']}")
        owns.append([_box_from_list(b, ndims) for b in entry["own"]])
        need = entry["need"]
        needs.append(None if need is None else _box_from_list(need, ndims))
    if nrounds != max((len(chunks) for chunks in owns), default=0):
        raise _CorruptPlan(f"nrounds {nrounds} is not the largest chunk count")

    rows: list[tuple[int, ...]] = []  # (round, owner, dest, *lo, *extent)
    for owner, entry in enumerate(ranks):
        for rnd, dest, chunk_index, chunk, region in entry["sends"]:
            if rnd != chunk_index:
                raise _CorruptPlan(
                    f"send round {rnd} != chunk index {chunk_index} "
                    "(round c drains chunk slot c)"
                )
            if not 0 <= rnd < nrounds:
                raise _CorruptPlan(f"rank {owner} sends in round {rnd} of {nrounds}")
            if not 0 <= dest < nprocs:
                raise _CorruptPlan(f"rank {owner} sends to rank {dest} of {nprocs}")
            if rnd >= len(owns[owner]) or _box_from_list(chunk, ndims) != owns[owner][rnd]:
                raise _CorruptPlan(f"rank {owner} round {rnd} sends from {chunk}, not its chunk")
            overlap = _box_from_list(region, ndims)
            need = needs[dest]
            if need is None:
                raise _CorruptPlan(f"rank {dest} receives in round {rnd} but declares no need")
            if overlap.is_empty() or not (
                owns[owner][rnd].contains_box(overlap) and need.contains_box(overlap)
            ):
                raise _CorruptPlan(
                    f"{overlap} (rank {owner} -> {dest}, round {rnd}) is not "
                    "a non-empty part of both the chunk and the need"
                )
            rows.append((rnd, owner, dest, *overlap.offset, *overlap.dims))
    rows.sort(key=lambda row: row[:3])
    if len({row[:3] for row in rows}) != len(rows):
        raise _CorruptPlan("two sends between the same pair of ranks in one round")

    table = np.array(rows, dtype=np.int64).reshape(len(rows), 3 + 2 * ndims)
    overlaps = Overlaps(*table[:, :3].T, table[:, 3 : 3 + ndims], table[:, 3 + ndims :])
    element_size = int(data["element_size"])
    decl = Declarations.from_boxes(owns, needs, ndims)
    plan = GlobalPlan(
        nprocs, ndims, element_size, nrounds, assemble_plan(decl, element_size, overlaps)
    )
    for schedule, entry in zip(plan.schedules, ranks):
        if entry["recvs"] != _recv_rows(schedule):
            raise _CorruptPlan(f"rank {schedule.rank}'s receives do not mirror the sends")
    return plan


def save_plan(path, plan: GlobalPlan) -> None:
    """Write a plan to ``path`` as JSON."""
    Path(path).write_text(json.dumps(plan_to_dict(plan)))


def load_plan(path) -> GlobalPlan:
    """Read a plan written by :func:`save_plan`."""
    return plan_from_dict(json.loads(Path(path).read_text()))


def attach_loaded_plan(
    descriptor: DataDescriptor, plan: GlobalPlan, rank: int
) -> LocalMapping:
    """Install a precomputed plan on a descriptor (replacing the collective
    setup step) and return the rank's :class:`LocalMapping`."""
    if plan.nprocs != descriptor.nprocs:
        raise ValueError(
            f"plan was computed for {plan.nprocs} ranks, descriptor declares "
            f"{descriptor.nprocs}"
        )
    if plan.ndims != descriptor.ndims:
        raise ValueError(
            f"plan is {plan.ndims}-D, descriptor declares {descriptor.ndims}-D"
        )
    if plan.element_size != descriptor.element_size:
        raise ValueError(
            f"plan element size {plan.element_size} != descriptor "
            f"{descriptor.element_size}"
        )
    local = local_mapping(plan.schedules[rank], None, descriptor)
    attach_mapping(descriptor, local)
    return local
