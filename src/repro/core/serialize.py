"""Persistence for computed plans.

At production scale the geometric planning in ``DDR_SetupDataMapping`` is
non-trivial (Table III's 216-rank round-robin schedule intersects 4096
chunks with 216 needs).  Since the mapping depends only on the declared
geometry, it can be computed once, saved as JSON, and reloaded by later
runs — an engineering extension the paper's "setup once" design invites.

A file lists each rank's declarations and its overlap rows (the plan IR,
:class:`~repro.core.schedule.Overlaps`) as sends and receives.  It is
input from outside the program: :func:`plan_from_dict` validates the
declarations as set-up does and requires the listed rows to be exactly the
ones the planner computes from them, rejecting anything else with
``ValueError("corrupt plan: ...")`` rather than letting it surface later
as an ``IndexError`` or as wrongly moved cells.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from .box import Box
from .descriptor import DataDescriptor
from .mapping import LocalMapping, attach_mapping, local_mapping
from .schedule import Declarations, GlobalPlan, RankPlan
from .validate import MappingValidationError, check_declarations

FORMAT_VERSION = 1


class _CorruptPlan(ValueError):
    def __init__(self, why: str) -> None:
        super().__init__(f"corrupt plan: {why}")


def _box_from_list(data: list, ndims: int) -> Box:
    offset, dims = data
    box = Box(tuple(offset), tuple(dims))
    if box.ndim != ndims:
        raise _CorruptPlan(f"{box} is {box.ndim}-D in a {ndims}-D plan")
    return box


def _rank_entry(plan: RankPlan) -> dict:
    """One rank's declarations and rows, ``sends`` as ``[round, peer, round,
    chunk, overlap]`` and ``recvs`` as ``[round, peer, overlap]``, in
    ``(round, peer)`` order, boxes as ``[offset, dims]``."""
    own = plan.own.tolist()
    return {
        "rank": plan.rank,
        "own": own,
        "need": None if plan.need is None else plan.need.tolist(),
        "sends": [[c, peer, c, own[c], [list(lo), list(extent)]]
                  for c, peer, lo, extent, _ in plan.lanes("send")],
        "recvs": [[c, peer, [list(lo), list(extent)]]
                  for c, peer, lo, extent, _ in plan.lanes("recv")],
    }


def plan_to_dict(plan: GlobalPlan) -> dict:
    """Lossless JSON-safe representation of a :class:`GlobalPlan`."""
    return {
        "version": FORMAT_VERSION,
        "nprocs": plan.nprocs,
        "ndims": plan.ndims,
        "element_size": plan.element_size,
        "nrounds": plan.nrounds,
        "ranks": [_rank_entry(rank) for rank in plan.rank_plans()],
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
    decl = Declarations.from_boxes(owns, needs, ndims)
    try:
        check_declarations(decl)
    except MappingValidationError as exc:
        raise _CorruptPlan(str(exc)) from exc
    plan = GlobalPlan(decl, int(data["element_size"]))
    for entry, rank in zip(ranks, plan.rank_plans()):
        expected = _rank_entry(rank)
        for side in ("sends", "recvs"):
            if entry[side] != expected[side]:
                raise _CorruptPlan(
                    f"rank {rank.rank}'s {side} are not the overlaps of the declarations"
                )
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
    (rows,) = plan.rank_plans([rank])
    local = local_mapping(rows, None, descriptor)
    attach_mapping(descriptor, local)
    return local
