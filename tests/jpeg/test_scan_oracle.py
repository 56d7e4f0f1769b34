"""Byte identity of the array-at-a-time scan coder.

Two oracles.  ``reference_scan`` is the per-block coder the encoder used to
run — MCU -> component -> block -> coefficient, one ``BitWriter.write`` per
symbol — kept here on top of the scalar T.81 §F.1.2 primitives, and compared
with ``_encode_scan`` on synthetic coefficient stacks.  ``golden_sha256.json``
holds the digests of whole files as that coder wrote them (recorded at commit
2916697 by running this file as a script), which also pins the front end:
padding, block order, MCU interleaving.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jpeg import encode_gray, encode_rgb
from repro.jpeg.encoder import _Component, _encode_scan
from repro.jpeg.huffman import (
    STD_AC_CHROMINANCE,
    STD_AC_LUMINANCE,
    STD_DC_CHROMINANCE,
    STD_DC_LUMINANCE,
)
from tests.jpeg.t81 import BitWriter, encode_magnitude, encode_symbol, magnitude_category

GOLDEN_PATH = Path(__file__).parent / "golden_sha256.json"


# -- the scalar reference ------------------------------------------------------------


def _reference_block(writer, zz, predictor, dc_table, ac_table):
    """Entropy-code one zig-zag block; returns the new DC predictor."""
    dc = int(zz[0])
    diff = dc - predictor
    size = magnitude_category(diff)
    encode_symbol(dc_table, writer, size)
    encode_magnitude(writer, diff, size)

    run = 0
    last_nonzero = 0
    nonzero = np.nonzero(zz[1:])[0]
    if nonzero.size:
        last_nonzero = int(nonzero[-1]) + 1
    for k in range(1, last_nonzero + 1):
        value = int(zz[k])
        if value == 0:
            run += 1
            continue
        while run > 15:
            encode_symbol(ac_table, writer, 0xF0)  # ZRL: 16 zeros
            run -= 16
        size = magnitude_category(value)
        encode_symbol(ac_table, writer, (run << 4) | size)
        encode_magnitude(writer, value, size)
        run = 0
    if last_nonzero < 63:
        encode_symbol(ac_table, writer, 0x00)  # EOB
    return dc


def reference_scan(components, restart_interval=None):
    out = bytearray()
    writer = BitWriter()
    predictors = [0] * len(components)
    n_mcus = components[0].blocks.shape[0]
    restart_index = 0
    for mcu in range(n_mcus):
        if restart_interval and mcu and mcu % restart_interval == 0:
            out += writer.flush()
            out += bytes([0xFF, 0xD0 + (restart_index % 8)])
            restart_index += 1
            writer = BitWriter()
            predictors = [0] * len(components)
        for index, comp in enumerate(components):
            for block in comp.blocks[mcu]:
                predictors[index] = _reference_block(
                    writer, block, predictors[index], comp.dc_table, comp.ac_table
                )
    out += writer.flush()
    return bytes(out)


# -- synthetic coefficient stacks ----------------------------------------------------

#: (h, v, dc_table, ac_table) per component: one 1x1, or 2x2 + 1x1 + 1x1.
LAYOUTS = {
    "gray": [(1, 1, STD_DC_LUMINANCE, STD_AC_LUMINANCE)],
    "420": [
        (2, 2, STD_DC_LUMINANCE, STD_AC_LUMINANCE),
        (1, 1, STD_DC_CHROMINANCE, STD_AC_CHROMINANCE),
        (1, 1, STD_DC_CHROMINANCE, STD_AC_CHROMINANCE),
    ],
}
DENSITIES = (0.0, 0.01, 0.05, 0.3, 0.9)
FORCED_RUNS = (15, 16, 17, 31, 32, 47, 48, 62)
#: What a block is overwritten with after the density fill.
BLOCK_KINDS = ("noise", "noise", "zero", "tail") + FORCED_RUNS
MAX_MCUS = 12


def components_of(layout, blocks_per_component):
    return [
        _Component(index + 1, h, v, min(index, 1), dc_table, ac_table, blocks)
        for index, ((h, v, dc_table, ac_table), blocks) in enumerate(
            zip(LAYOUTS[layout], blocks_per_component)
        )
    ]


def synthetic_components(layout, n_mcus, density, seed, kinds):
    """AC in [-1023, 1023] at the given non-zero density, DC in [-1024, 1023]
    (so differences span [-2047, 2047]); then per block, by ``kinds``: left
    alone, all zero (DC too), coefficient 63 non-zero (no EOB), or only
    non-zeros a forced zero run apart."""
    rng = np.random.default_rng(seed)
    kinds = iter(kinds)
    stacks = []
    for h, v, _, _ in LAYOUTS[layout]:
        shape = (n_mcus, h * v, 64)
        blocks = rng.integers(-1023, 1024, shape).astype(np.int32)
        blocks[rng.random(shape) >= density] = 0
        blocks[..., 0] = rng.integers(-1024, 1024, shape[:2])
        for block in blocks.reshape(-1, 64):
            kind = next(kinds)
            amplitude = int(rng.choice((-1023, -2, -1, 1, 3, 1023)))
            if kind == "zero":
                block[:] = 0
            elif kind == "tail":
                block[63] = amplitude
            elif kind != "noise":
                block[1:] = 0
                block[1 + kind :: 1 + kind] = amplitude
        stacks.append(blocks)
    return components_of(layout, stacks)


@settings(max_examples=400, deadline=None)
@given(
    layout=st.sampled_from(sorted(LAYOUTS)),
    n_mcus=st.integers(1, MAX_MCUS),
    density=st.sampled_from(DENSITIES),
    restart=st.sampled_from((None, 1, 2, 5, MAX_MCUS, 3 * MAX_MCUS)),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(
        st.sampled_from(BLOCK_KINDS), min_size=6 * MAX_MCUS, max_size=6 * MAX_MCUS
    ),
)
def test_scan_equals_scalar_reference(layout, n_mcus, density, restart, seed, kinds):
    components = synthetic_components(layout, n_mcus, density, seed, kinds)
    assert _encode_scan(components, restart) == reference_scan(components, restart)


def gray_stack(blocks):
    return components_of("gray", [np.asarray(blocks, dtype=np.int32).reshape(-1, 1, 64)])


def test_interval_ending_in_ff_is_stuffed_before_the_marker():
    # Coefficient 63 alone: three ZRLs, then run 14 / size 1 and a one-bit with
    # no EOB after it, so each interval's padded last byte is 0xFF.
    block = np.zeros(64, dtype=np.int32)
    block[0], block[63] = -31, 1
    components = gray_stack([block, block])
    expected = reference_scan(components, 1)
    assert b"\xff\x00\xff\xd0" in expected and expected.endswith(b"\xff\x00")
    assert _encode_scan(components, 1) == expected


def test_marker_index_wraps_after_eight_intervals():
    rng = np.random.default_rng(8)
    blocks = rng.integers(-40, 41, (20, 64))
    blocks[rng.random(blocks.shape) < 0.7] = 0
    components = gray_stack(blocks)
    expected = reference_scan(components, 2)
    assert expected.count(b"\xff\xd0") == 2  # RST0 ... RST7, RST0
    assert _encode_scan(components, 2) == expected


@pytest.mark.parametrize(
    "blocks",
    [
        pytest.param([[0] * 5 + [1024] + [0] * 58], id="ac-1024"),
        pytest.param([[-1024] + [0] * 63, [1024] + [0] * 63], id="dc-diff-2048"),
        pytest.param([[0] * 20 + [5000] + [0] * 43], id="ac-5000"),
    ],
)
def test_uncodable_coefficient_raises_what_the_scalar_coder_raises(blocks):
    components = gray_stack(blocks)
    with pytest.raises(ValueError, match="not in Huffman table") as scalar:
        reference_scan(components)
    with pytest.raises(ValueError) as vectorised:
        _encode_scan(components)
    assert str(vectorised.value) == str(scalar.value)


def test_coefficient_beyond_the_category_table_is_a_value_error():
    with pytest.raises(ValueError, match="40000"):
        _encode_scan(gray_stack([[0] * 9 + [40000] + [0] * 54]))


# -- whole files against the recorded digests ----------------------------------------

SHAPES = ((1, 1), (7, 9), (15, 17), (16, 16), (37, 50), (240, 600))
QUALITIES = (1, 10, 50, 80, 95, 100)
MODES = ("420", "444", "gray")
RESTARTS = (None, 1, 3, 100)


def golden_images(height, width):
    """RGB test images by name; grayscale cases encode channel 0."""
    ys, xs = np.mgrid[0:height, 0:width]
    checker = ((xs + ys) % 2 * 255).astype(np.uint8)
    return {
        "noise": np.random.default_rng(0).integers(
            0, 256, (height, width, 3), dtype=np.uint8
        ),
        "ramp": np.stack([xs + ys, 2 * xs + ys, xs + 3 * ys], axis=-1).astype(np.uint8),
        "checker": np.stack([checker, 255 - checker, checker], axis=-1),
    }


def golden_digests():
    """``{"noise/240x600/420/q80/r3": [length, sha256], ...}`` from this tree."""
    digests = {}
    for height, width in SHAPES:
        for name, image in golden_images(height, width).items():
            for mode, quality, restart in itertools.product(MODES, QUALITIES, RESTARTS):
                if mode == "gray":
                    blob = encode_gray(image[..., 0], quality, restart)
                else:
                    blob = encode_rgb(image, quality, mode, restart)
                key = f"{name}/{height}x{width}/{mode}/q{quality}/r{restart}"
                digests[key] = [len(blob), hashlib.sha256(blob).hexdigest()]
    return digests


def test_files_match_the_recorded_digests():
    golden = json.loads(GOLDEN_PATH.read_text())
    digests = golden_digests()
    assert sorted(digests) == sorted(golden)
    assert [key for key in golden if digests[key] != golden[key]] == []


# -- memory ---------------------------------------------------------------------------


def test_one_encode_stays_under_the_memory_ceiling():
    # 7.19 MiB: the (3, h, w) YCbCr planes plus one component's shifted,
    # DCT and zig-zag buffers (9.41 with interleaved float64 copies and
    # np.pad / blockify / quantize / to_zigzag each copying a plane; 19.5 with
    # a scan coder that kept int64 temporaries, which pushed the serving
    # benchmark's peak RSS past its bound).  numpy reports its buffers to
    # tracemalloc, so the number repeats exactly.
    ys, xs = np.mgrid[0:240, 0:600]
    field = np.sin(0.3 * xs + 1.19) * np.cos(0.2 * ys - 0.35)
    frame = np.stack([128 + 127 * field, 128 - 90 * field, 255 * field**2], axis=-1)
    frame = (frame + np.random.default_rng(0).integers(-6, 7, frame.shape)).clip(0, 255)
    frame = frame.astype(np.uint8)
    encode_rgb(frame, quality=80)
    tracemalloc.start()
    try:
        encode_rgb(frame, quality=80)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, f"{peak / 2**20:.2f} MiB"


if __name__ == "__main__":  # record the digests of the tree on sys.path, one per line
    rows = [f"{json.dumps(key)}: {json.dumps(row)}" for key, row in golden_digests().items()]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(rows) + "\n}\n")
