"""Cluster spec and disk model unit tests."""

from __future__ import annotations

import pytest

from repro.netmodel import (
    COOLEY,
    fs_saturation_factor,
    image_read_time,
    stack_read_time,
)
from repro.utils import MiB


class TestClusterSpec:
    def test_cooley_physical_constants_match_paper(self):
        assert COOLEY.nodes == 126
        assert COOLEY.procs_per_node == 2
        assert COOLEY.link_bytes_per_s == pytest.approx(7e9)  # 56 Gbps

    def test_proc_link_share(self):
        assert COOLEY.proc_link_share == pytest.approx(3.5e9)

    def test_alpha_grows_with_ranks(self):
        assert COOLEY.alpha(216) > COOLEY.alpha(27) > 0

    def test_effective_bw_monotone_in_message_size(self):
        small = COOLEY.effective_bw(1 * MiB)
        big = COOLEY.effective_bw(4000 * MiB)
        assert small > big > 0
        assert COOLEY.effective_bw(0) == COOLEY.proc_link_share

    def test_with_override(self):
        spec = COOLEY.with_(read_decode_bw=1e9)
        assert spec.read_decode_bw == 1e9
        assert spec.nodes == COOLEY.nodes
        assert COOLEY.read_decode_bw != 1e9  # original untouched


class TestDiskModel:
    def test_no_saturation_below_peak(self):
        assert fs_saturation_factor(COOLEY, 1) == 1.0
        few = int(COOLEY.fs_peak_bw / COOLEY.read_decode_bw) - 1
        assert fs_saturation_factor(COOLEY, few) == 1.0

    def test_saturation_above_peak(self):
        many = int(COOLEY.fs_peak_bw / COOLEY.read_decode_bw) * 4
        assert fs_saturation_factor(COOLEY, many) > 1.0

    def test_saturation_sublinear(self):
        many = int(COOLEY.fs_peak_bw / COOLEY.read_decode_bw) * 4
        # 4x oversubscription must cost far less than 4x slowdown.
        assert fs_saturation_factor(COOLEY, many) < 2.0

    def test_image_read_time_components(self):
        t = image_read_time(COOLEY, 32 * MiB, 1)
        assert t == pytest.approx(COOLEY.file_open_s + 32 * MiB / COOLEY.read_decode_bw)

    def test_stack_read_scales_with_count(self):
        one = stack_read_time(COOLEY, 1, 32 * MiB, 8)
        ten = stack_read_time(COOLEY, 10, 32 * MiB, 8)
        assert ten == pytest.approx(10 * one)
