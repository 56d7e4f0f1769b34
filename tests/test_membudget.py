"""The process-wide staging-memory budget: ledger, scoping, and audit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpisim.errors import MemoryBudgetError, MpiSimError
from repro.utils.membudget import (
    MEMORY_BUDGET,
    MemoryBudget,
    _limit_from_env,
    auditing_memory,
    budget_scope,
)


class TestLedger:
    def test_inactive_budget_is_a_no_op(self):
        budget = MemoryBudget()
        assert not budget.active
        budget.reserve(1 << 40)  # would blow any limit
        assert budget.used_bytes() == 0
        assert budget.limit_bytes is None

    def test_reserve_release_roundtrip(self):
        budget = MemoryBudget(limit_bytes=1024)
        budget.reserve(600, rank=0)
        budget.reserve(200, rank=0)
        assert budget.used_bytes(0) == 800
        budget.release(800, rank=0)
        assert budget.used_bytes(0) == 0
        assert budget.peak_bytes(0) == 800  # high-water mark survives drain

    def test_over_limit_raises_typed_before_mutating(self):
        budget = MemoryBudget(limit_bytes=1024)
        budget.reserve(1000, rank=0)
        with pytest.raises(MemoryBudgetError, match="DDR_MEM_BUDGET_MB"):
            budget.reserve(100, "packed payload", rank=0)
        # The failed reservation charged nothing.
        assert budget.used_bytes(0) == 1000

    def test_typed_error_is_catchable_both_ways(self):
        # Callers catching the library's root or the stdlib MemoryError
        # both see budget exhaustion.
        assert issubclass(MemoryBudgetError, MpiSimError)
        assert issubclass(MemoryBudgetError, MemoryError)

    def test_limit_is_per_rank(self):
        budget = MemoryBudget(limit_bytes=100)
        for rank in range(4):
            budget.reserve(90, rank=rank)
        assert sum(budget._used.values()) == 360
        with pytest.raises(MemoryBudgetError):
            budget.reserve(20, rank=2)

    def test_release_clamps_at_zero(self):
        # Enabling a budget mid-flight: stragglers allocated before the
        # limit existed release into an empty ledger harmlessly.
        budget = MemoryBudget(limit_bytes=1024)
        budget.release(500, rank=0)
        assert budget.used_bytes(0) == 0
        budget.reserve(1024, rank=0)  # full limit still available

    def test_peak_without_rank_is_worst_rank(self):
        budget = MemoryBudget(limit_bytes=1024)
        budget.reserve(100, rank=0)
        budget.reserve(700, rank=1)
        assert budget.peak_bytes() == 700


class TestBudgetScope:
    def test_installs_and_restores(self):
        assert not MEMORY_BUDGET.active
        with budget_scope(limit_mb=1) as budget:
            assert budget is MEMORY_BUDGET
            assert budget.active
            assert budget.limit_bytes == 1 << 20
            budget.reserve(512, rank=0)
        assert not MEMORY_BUDGET.active
        assert MEMORY_BUDGET.used_bytes(0) == 0

    def test_restores_prior_ledger_on_nesting(self):
        with budget_scope(limit_bytes=4096):
            MEMORY_BUDGET.reserve(100, rank=0)
            with budget_scope(limit_bytes=64):
                assert MEMORY_BUDGET.used_bytes(0) == 0
                with pytest.raises(MemoryBudgetError):
                    MEMORY_BUDGET.reserve(100, rank=0)
            assert MEMORY_BUDGET.limit_bytes == 4096
            assert MEMORY_BUDGET.used_bytes(0) == 100

    def test_none_disables_within_block(self):
        with budget_scope(limit_bytes=64):
            with budget_scope(None):
                MEMORY_BUDGET.reserve(1 << 20, rank=0)  # no limit: fine
            assert MEMORY_BUDGET.limit_bytes == 64

    def test_rejects_both_units(self):
        with pytest.raises(ValueError, match="not both"):
            with budget_scope(1, limit_bytes=1024):
                pass

    def test_rejects_negative_limit_before_touching_the_ledger(self):
        with budget_scope(limit_bytes=4096):
            MEMORY_BUDGET.reserve(100, rank=0)
            with pytest.raises(ValueError, match=">= 0"):
                with budget_scope(limit_bytes=-1):
                    pass
            assert (MEMORY_BUDGET.limit_bytes, MEMORY_BUDGET.used_bytes(0)) == (4096, 100)


@pytest.mark.parametrize("raw", ["-1", "0", "abc", "nan", "inf"])
def test_env_limit_rejects_unusable_values_by_name(monkeypatch, raw):
    # The environment is input from outside the program: a value that would
    # refuse every reservation (or kill the import) names its variable.
    monkeypatch.setenv("DDR_MEM_BUDGET_MB", raw)
    with pytest.raises(ValueError, match=f"DDR_MEM_BUDGET_MB='{raw}'"):
        _limit_from_env()
    monkeypatch.setenv("DDR_MEM_BUDGET_MB", " 1.5 ")
    assert _limit_from_env() == 3 << 19


class TestAudit:
    def test_measures_real_allocations(self):
        nbytes = 4 << 20
        with auditing_memory() as audit:
            block = np.ones(nbytes, dtype=np.uint8)
            del block
        # tracemalloc sees the numpy block plus small interpreter noise.
        assert audit.measured_peak_bytes >= nbytes
        assert audit.measured_peak_bytes < 2 * nbytes

    def test_peak_is_high_water_not_sum(self):
        nbytes = 1 << 20
        with auditing_memory() as audit:
            for _ in range(8):
                block = np.ones(nbytes, dtype=np.uint8)
                del block  # sequential blocks never coexist
        assert audit.measured_peak_bytes < 3 * nbytes
