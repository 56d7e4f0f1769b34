"""Unit tests for repro.utils."""

from __future__ import annotations

import time

import pytest

from repro.utils import (
    GiB,
    MiB,
    Timer,
    counting_transfers,
    fmt_bytes,
    gbit_per_s,
)
from repro.utils.timing import TRANSFER_COUNTERS


class TestUnits:
    def test_gbit_per_s_fdr_infiniband(self):
        # The paper's Cooley link: 56 Gbps -> 7e9 bytes/s.
        assert gbit_per_s(56) == pytest.approx(7e9)

    def test_fmt_bytes_suffixes(self):
        assert fmt_bytes(512) == "512.00 B"
        assert fmt_bytes(3 * MiB) == "3.00 MiB"
        assert fmt_bytes(2 * GiB) == "2.00 GiB"
        assert "TiB" in fmt_bytes(5 * GiB * 1024)


class TestTimer:
    def test_timer_measures_elapsed(self):
        with Timer() as t:
            time.sleep(0.01)
        assert 0.005 < t.elapsed < 1.0


class TestTransferCounters:
    def test_count_copy_rejects_unknown_kind(self):
        counters = TRANSFER_COUNTERS
        with pytest.raises(ValueError, match="unknown copy kind 'teleport'"):
            counters.count_copy("teleport", 10)

    def test_nested_counting_preserves_outer_accounting(self):
        """Regression: the inner block's reset used to wipe the outer block's
        counts and its exit left accounting disabled for the rest of the
        outer block."""
        counters = TRANSFER_COUNTERS
        with counting_transfers() as outer:
            outer.count_copy("pack", 100)
            with counting_transfers() as inner:
                assert sum(inner.copies.values()) == 0  # inner block starts from zero
                inner.count_copy("pack", 30)
                assert inner.copies["pack"] == 1
            assert counters.enabled  # outer block is still counting...
            counters.count_copy("unpack", 5)
            # ...and sees its own pre-nesting counts plus the inner block's.
            assert outer.copies["pack"] == 2
            assert outer.bytes_copied["pack"] == 130
            assert outer.copies["unpack"] == 1
        assert not counters.enabled

    def test_nested_counting_restores_enabled_state(self):
        counters = TRANSFER_COUNTERS
        assert not counters.enabled
        with counting_transfers():
            with counting_transfers():
                pass
            assert counters.enabled
        assert not counters.enabled
