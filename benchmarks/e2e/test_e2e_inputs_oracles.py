"""Seed determinism of the generated inputs, and every oracle seeing a
deliberately corrupted output (one flipped element or byte) fail."""

import numpy as np

from repro.core import Box
from repro.imaging import VolumeSpec
from repro.lbm import LbmConfig

import inputs
import oracles

SMALL = inputs.RedistCase("small", (8, 8, 8), round_robin=True)


# -- inputs --------------------------------------------------------------------------


def test_same_seed_same_inputs_other_seed_other_inputs():
    spec = VolumeSpec(16, 12, 3, np.float32)
    for make in (
        lambda seed: inputs.global_array(seed, SMALL),
        lambda seed: np.stack(inputs.phantom_slices(seed, spec)),
    ):
        assert np.array_equal(make(7), make(7))
        assert not np.array_equal(make(7), make(8))
    assert inputs.lbm_config(7) == inputs.lbm_config(7) != inputs.lbm_config(8)
    assert inputs.serve_inputs(7) == inputs.serve_inputs(7) != inputs.serve_inputs(8)


def test_seed_changes_contents_not_structure():
    a, b = inputs.serve_inputs(1), inputs.serve_inputs(2)
    for one, other in zip(a.layouts, b.layouts):
        assert one.roi.dims == other.roi.dims
        assert (one.mip, one.parts) == (other.mip, other.parts)
    assert a.layouts[1].roi.dims == (inputs.ROI_W, inputs.ROI_H)
    assert (inputs.lbm_config(1).nx, inputs.lbm_config(1).ny) == (inputs.NX, inputs.NY)
    assert inputs.phantom_slices(1, VolumeSpec(16, 12, 2, np.float32))[0].dtype == np.float32


def test_redist_cases_tile_the_array():
    for case in (inputs.BULK, inputs.ROUNDS, SMALL):
        volume = int(np.prod(case.dims))
        assert sum(b.volume() for r in range(inputs.RANKS) for b in case.own(r)) == volume
        assert sum(case.need(r).volume() for r in range(inputs.RANKS)) == volume
    assert len(inputs.ROUNDS.own(0)) == 32 and len(inputs.BULK.own(0)) == 1
    # 512-byte contiguous runs in the bulk lanes
    assert inputs.BULK.need(0).dims[0] * 4 == 512


# -- oracles -------------------------------------------------------------------------


def test_redist_oracle_sees_one_flipped_element():
    data = inputs.global_array(3, SMALL)
    need = SMALL.need(2)
    out = np.array(inputs.crop(data, need))
    assert oracles.need_buffer_matches(out, data, need)
    out[1, 2, 3] = np.nextafter(out[1, 2, 3], np.float32(2.0))
    assert not oracles.need_buffer_matches(out, data, need)


def test_tiff_oracle_sees_one_flipped_element():
    slices = inputs.phantom_slices(3, VolumeSpec(16, 12, 4, np.float32))
    box = Box((4, 2, 1), (8, 6, 3))
    block = np.stack([s[2:8, 4:12] for s in slices[1:4]])
    assert oracles.brick_matches(block, box, slices)
    block[2, 5, 7] += np.float32(1.0)
    assert not oracles.brick_matches(block, box, slices)
    assert not oracles.brick_matches(block[:2], box, slices)  # wrong shape


def test_lbm_oracle_sees_one_flipped_byte_and_a_missing_frame():
    config = LbmConfig(nx=32, ny=16)
    expected = oracles.serial_frames(config, output_every=5, limit=0.05, count=2)
    rendered = [frame.copy() for frame in expected]
    assert oracles.frames_match(rendered, expected)
    assert not oracles.frames_match(rendered[:1], expected)
    rendered[1][3, 4, 0] ^= 1
    assert not oracles.frames_match(rendered, expected)


def test_socket_oracle_sees_one_flipped_byte_and_a_repeated_index():
    field = np.sin(np.arange(32 * 64, dtype=np.float32)).reshape(32, 64)
    jpeg = oracles.served_jpeg(field, 80)
    assert jpeg[:2] == b"\xff\xd8"
    assert oracles.socket_frames_correct(jpeg, [0, 1, 4], field, 80)
    flipped = bytearray(jpeg)
    flipped[len(flipped) // 2] ^= 1
    assert not oracles.socket_frames_correct(bytes(flipped), [0, 1, 4], field, 80)
    assert not oracles.socket_frames_correct(jpeg, [0, 1, 1], field, 80)
    assert not oracles.socket_frames_correct(jpeg, [0, 1, 4], field, 60)
