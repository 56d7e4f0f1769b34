"""Unit tests for repro.utils."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.utils import (
    GiB,
    MiB,
    Timer,
    as_contiguous,
    counting_transfers,
    dtype_size,
    flat_view,
    fmt_bytes,
    fmt_mb,
    fmt_seconds,
    gbit_per_s,
    mb,
    transfer_counters,
)
from repro.utils.log import (
    _ROOT_NAME,
    disable_console_logging,
    enable_console_logging,
)


class TestUnits:
    def test_mb_is_binary(self):
        assert mb(32 * MiB) == 32.0

    def test_gbit_per_s_fdr_infiniband(self):
        # The paper's Cooley link: 56 Gbps -> 7e9 bytes/s.
        assert gbit_per_s(56) == pytest.approx(7e9)

    def test_fmt_bytes_suffixes(self):
        assert fmt_bytes(512) == "512.00 B"
        assert fmt_bytes(3 * MiB) == "3.00 MiB"
        assert fmt_bytes(2 * GiB) == "2.00 GiB"
        assert "TiB" in fmt_bytes(5 * GiB * 1024)

    def test_fmt_mb_matches_paper_table3_convention(self):
        # 32 MiB image minus 1/27 kept locally.
        nbytes = 32 * MiB * 26 / 27
        assert fmt_mb(nbytes) == "30.81"

    def test_fmt_seconds(self):
        assert fmt_seconds(6.64) == "6.6 sec"


class TestTimer:
    def test_timer_measures_elapsed(self):
        with Timer() as t:
            time.sleep(0.01)
        assert 0.005 < t.elapsed < 1.0


class TestArrays:
    def test_dtype_size(self):
        assert dtype_size(np.float32) == 4
        assert dtype_size("u1") == 1
        assert dtype_size(np.float64) == 8

    def test_as_contiguous_passthrough(self):
        a = np.zeros((3, 4))
        assert as_contiguous(a) is a

    def test_as_contiguous_copies_views(self):
        a = np.zeros((4, 4))[:, ::2]
        b = as_contiguous(a)
        assert b.flags["C_CONTIGUOUS"]
        assert b is not a

    def test_flat_view_shares_memory(self):
        a = np.zeros((2, 3))
        v = flat_view(a)
        v[0] = 7.0
        assert a[0, 0] == 7.0

    def test_flat_view_rejects_noncontiguous(self):
        a = np.zeros((4, 4))[:, ::2]
        with pytest.raises(ValueError):
            flat_view(a)


class TestConsoleLogging:
    """Regression: enable_console_logging used to stack a fresh StreamHandler
    per call, duplicating every log line."""

    @pytest.fixture(autouse=True)
    def _clean_handler(self):
        import logging

        disable_console_logging()
        yield
        disable_console_logging()
        logging.getLogger(_ROOT_NAME).setLevel(logging.NOTSET)

    def _console_handlers(self):
        import logging

        root = logging.getLogger(_ROOT_NAME)
        return [h for h in root.handlers if isinstance(h, logging.StreamHandler)]

    def test_repeat_calls_attach_one_handler(self):
        import logging

        enable_console_logging()
        enable_console_logging()
        enable_console_logging(logging.DEBUG)
        assert len(self._console_handlers()) == 1
        assert logging.getLogger(_ROOT_NAME).level == logging.DEBUG

    def test_disable_then_enable_reattaches(self):
        enable_console_logging()
        disable_console_logging()
        assert self._console_handlers() == []
        enable_console_logging()
        assert len(self._console_handlers()) == 1


class TestTransferCounters:
    def test_count_copy_rejects_unknown_kind(self):
        counters = transfer_counters()
        with pytest.raises(ValueError, match="unknown copy kind 'teleport'"):
            counters.count_copy("teleport", 10)

    def test_nested_counting_preserves_outer_accounting(self):
        """Regression: the inner block's reset used to wipe the outer block's
        counts and its exit left accounting disabled for the rest of the
        outer block."""
        counters = transfer_counters()
        with counting_transfers() as outer:
            outer.count_copy("pack", 100)
            with counting_transfers() as inner:
                assert inner.total_copies == 0  # inner block starts from zero
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
        counters = transfer_counters()
        assert not counters.enabled
        with counting_transfers():
            with counting_transfers():
                pass
            assert counters.enabled
        assert not counters.enabled
