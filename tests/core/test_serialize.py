"""Plan persistence: roundtrip, file I/O, saved-format compatibility,
rejection of corrupt files, and reuse by a fresh descriptor."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    Box,
    DataDescriptor,
    DDR_ReorganizeData,
    attach_loaded_plan,
    compute_global_plan,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    save_plan,
)
from tests.conftest import spmd

#: ``plan_to_dict`` output recorded at the commit before the plan IRs were
#: merged (format ``version: 1``): E1 quadrants, a round-robin stack with
#: uneven chunk counts and a need-less rank, and a shrunken rank set whose
#: survivors keep non-contiguous slabs.  Files saved back then must load.
GOLDEN = json.loads((Path(__file__).parent / "plan_golden_v1.json").read_text())


def boxes(rows):
    return [None if row is None else Box(tuple(row[0]), tuple(row[1])) for row in rows]


def same_plan(restored, plan):
    """The same declarations, rows and plan-wide round statistics."""
    return (
        plan_to_dict(restored) == plan_to_dict(plan)
        and all(np.array_equal(a, b) for a, b in zip(restored.overlaps, plan.overlaps))
        and (restored.partners, restored.staged, restored.rows)
        == (plan.partners, plan.staged, plan.rows)
    )


def e1_plan():
    owns = [[Box((0, r), (8, 1)), Box((0, r + 4), (8, 1))] for r in range(4)]
    needs = [Box((4 * (r % 2), 4 * (r // 2)), (4, 4)) for r in range(4)]
    return compute_global_plan(owns, needs, element_size=4)


class TestRoundtrip:
    def test_dict_roundtrip_is_lossless(self):
        plan = e1_plan()
        restored = plan_from_dict(plan_to_dict(plan))
        assert restored.nprocs == plan.nprocs
        assert restored.ndims == plan.ndims
        assert restored.element_size == plan.element_size
        assert restored.nrounds == plan.nrounds
        assert same_plan(restored, plan)

    def test_statistics_survive(self):
        plan = e1_plan()
        restored = plan_from_dict(plan_to_dict(plan))
        assert restored.total_bytes_moved() == plan.total_bytes_moved()
        assert np.array_equal(restored.traffic_matrix(), plan.traffic_matrix())

    def test_none_need_roundtrip(self):
        plan = compute_global_plan(
            [[Box((0,), (4,))], [Box((4,), (4,))]], [Box((0,), (8,)), None], 1
        )
        restored = plan_from_dict(plan_to_dict(plan))
        assert restored.rank_plans([1])[0].need is None

    def test_file_roundtrip(self, tmp_path):
        plan = e1_plan()
        path = tmp_path / "plan.json"
        save_plan(path, plan)
        assert same_plan(load_plan(path), plan)

    def test_version_checked(self):
        data = plan_to_dict(e1_plan())
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            plan_from_dict(data)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_saved_plans_stay_loadable_and_byte_compatible(name):
    saved = GOLDEN[name]
    assert plan_to_dict(plan_from_dict(saved)) == saved
    fresh = compute_global_plan(
        [boxes(entry["own"]) for entry in saved["ranks"]],
        boxes([entry["need"] for entry in saved["ranks"]]),
        saved["element_size"],
    )
    assert plan_to_dict(fresh) == saved
    assert same_plan(plan_from_dict(saved), fresh)


def put(*path_and_value):
    """An edit of the E1 plan dict: ``data[path[0]][path[1]]... = value``."""
    *path, last, value = path_and_value

    def apply(data):
        for key in path:
            data = data[key]
        data[last] = value

    return apply


def remote_lane(data, rank=1):
    """``rank``'s first send to another rank and the receive mirroring it."""
    send = next(row for row in data["ranks"][rank]["sends"] if row[1] != rank)
    rnd, dest, _, _, region = send
    return send, next(row for row in data["ranks"][dest]["recvs"] if row == [rnd, rank, region])


def drop_lane(data):
    send, recv = remote_lane(data)
    data["ranks"][1]["sends"].remove(send)
    data["ranks"][send[1]]["recvs"].remove(recv)


def shrink_lane(data):
    """One cell off the overlap, on both sides: still inside chunk and need."""
    for row in remote_lane(data):
        row[-1][1][0] -= 1


CORRUPTIONS = {
    "short rank table": lambda d: d["ranks"].pop(),
    "out-of-order rank": put("ranks", 1, "rank", 2),
    "peer >= nprocs": put("ranks", 0, "sends", 1, 1, 4),
    "round >= nrounds": put("nrounds", 1),
    "send round != chunk index": put("ranks", 0, "sends", 0, 0, 1),
    "box of the wrong dimensionality": put("ranks", 0, "sends", 0, 4, [[0], [4]]),
    "negative dims": put("ranks", 0, "own", 0, [[0, 0], [8, -1]]),
    "send from a box that is not the chunk": put("ranks", 0, "sends", 0, 3, [[0, 1], [8, 1]]),
    "overlap outside the need": put("ranks", 0, "sends", 0, 4, [[2, 0], [4, 1]]),
    "receive without a matching send": put("ranks", 2, "recvs", 0, 1, 3),
    "receive on a rank without a need": put("ranks", 1, "need", None),
    "duplicate send": lambda d: d["ranks"][0]["sends"].append(d["ranks"][0]["sends"][0]),
    "malformed row": put("ranks", 0, "sends", 0, [0, 0]),
    "a lane dropped on both sides": drop_lane,
    "a lane shrunk on both sides": shrink_lane,
    # The same rows as the golden plan; only validating the declarations,
    # as set-up does, rejects it.
    "need past the domain": put("ranks", 3, "need", [[4, 4], [5, 4]]),
}


@pytest.mark.parametrize("what", sorted(CORRUPTIONS))
def test_corrupt_plans_are_rejected(what):
    """A plan file is outside input: none of these may load and then fail
    later as an ``IndexError`` or move the wrong cells."""
    data = copy.deepcopy(GOLDEN["e1_quadrants"])
    CORRUPTIONS[what](data)
    with pytest.raises(ValueError, match="corrupt plan"):
        plan_from_dict(data)


class TestAttachLoadedPlan:
    def test_reorganize_with_precomputed_plan(self, tmp_path):
        """Full cached-mapping workflow: plan offline, save, reload, run —
        skipping the collective setup entirely."""
        path = tmp_path / "plan.json"
        save_plan(path, e1_plan())

        def fn(comm):
            plan = load_plan(path)
            desc = DataDescriptor.create(4, 2, np.float32)
            attach_loaded_plan(desc, plan, comm.rank)
            g = np.arange(64, dtype=np.float32).reshape(8, 8)
            need = np.zeros((4, 4), dtype=np.float32)
            own = [g[comm.rank].copy(), g[comm.rank + 4].copy()]
            DDR_ReorganizeData(comm, 4, own, need, desc)
            r = comm.rank
            expect = g[4 * (r // 2) : 4 * (r // 2) + 4, 4 * (r % 2) : 4 * (r % 2) + 4]
            assert np.array_equal(need, expect)
            return True

        assert all(spmd(4, fn))

    def test_mismatches_rejected(self):
        plan = e1_plan()
        with pytest.raises(ValueError, match="ranks"):
            attach_loaded_plan(DataDescriptor.create(8, 2, np.float32), plan, 0)
        with pytest.raises(ValueError, match="-D"):
            attach_loaded_plan(DataDescriptor.create(4, 3, np.float32), plan, 0)
        with pytest.raises(ValueError, match="element size"):
            attach_loaded_plan(DataDescriptor.create(4, 2, np.float64), plan, 0)
