"""Plan persistence over a shrunken comm with non-contiguous world origins.

After two crashes a 6-rank world shrinks to survivors with world ranks
(0, 2, 3, 5).  The redistribution plan is computed in the *dense* shrunken
rank space, round-trips through JSON, and drives a real exchange on the
shrunken communicator — proving serialized plans are portable across a
recovery boundary where dense ranks no longer equal world ranks.
"""

from __future__ import annotations

import numpy as np

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
from repro.mpisim import RankCrashError, run_spmd

DEAD = frozenset({1, 4})


def e1_plan():
    """The paper's E1 example over the four survivors."""
    owns = [[Box((0, r), (8, 1)), Box((0, r + 4), (8, 1))] for r in range(4)]
    needs = [Box((4 * (r % 2), 4 * (r // 2)), (4, 4)) for r in range(4)]
    return compute_global_plan(owns, needs, element_size=4)


def test_roundtripped_plan_runs_on_shrunken_comm(tmp_path):
    path = tmp_path / "plan.json"
    save_plan(path, e1_plan())

    def fn(comm):
        if comm.rank in DEAD:
            raise RankCrashError("scripted death")
        sub = comm.shrink(dead=DEAD)
        assert sub.world_ranks == (0, 2, 3, 5)  # non-contiguous origins
        plan = load_plan(path)
        desc = DataDescriptor.create(4, 2, np.float32)
        # the plan is indexed by the *dense* shrunken rank, not world rank
        attach_loaded_plan(desc, plan, sub.rank)
        g = np.arange(64, dtype=np.float32).reshape(8, 8)
        need = np.zeros((4, 4), dtype=np.float32)
        DDR_ReorganizeData(
            sub, 4, [g[sub.rank].copy(), g[sub.rank + 4].copy()], need, desc
        )
        r = sub.rank
        expect = g[4 * (r // 2) : 4 * (r // 2) + 4, 4 * (r % 2) : 4 * (r % 2) + 4]
        assert np.array_equal(need, expect)
        return sub.rank

    results = run_spmd(6, fn, resilient=True, deadlock_timeout=20.0)
    survivors = [r for r in results if not isinstance(r, RankCrashError)]
    assert survivors == [0, 1, 2, 3]


def test_dict_roundtrip_matches_over_survivor_plan():
    plan = e1_plan()
    restored = plan_from_dict(plan_to_dict(plan))
    assert restored.nprocs == plan.nprocs
    assert plan_to_dict(restored) == plan_to_dict(plan)
    assert restored.staged == plan.staged
