"""Baseline sequential JPEG encoder (SOF0, Huffman, 4:4:4 or 4:2:0).

Produces standard JFIF files — the "compressed JPEG image" output of the
paper's in-transit analysis application (§IV-B, Table IV).  Grayscale and
RGB inputs are supported; RGB defaults to 4:2:0 chroma subsampling like
common libjpeg configurations.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .color import subsample_420, ycbcr_planes
from .dct import BLOCK, ZIGZAG_FLAT, forward_dct, to_zigzag
from .huffman import (
    HuffmanTable,
    STD_AC_CHROMINANCE,
    STD_AC_LUMINANCE,
    STD_DC_CHROMINANCE,
    STD_DC_LUMINANCE,
)
from .quant import BASE_CHROMINANCE, BASE_LUMINANCE, scale_table

# Marker bytes.
SOI = b"\xff\xd8"
EOI = b"\xff\xd9"
APP0 = 0xE0
DQT = 0xDB
SOF0 = 0xC0
DHT = 0xC4
SOS = 0xDA
DRI = 0xDD


@dataclass
class _Component:
    comp_id: int
    h: int  # horizontal sampling factor
    v: int  # vertical sampling factor
    quant_id: int
    dc_table: HuffmanTable
    ac_table: HuffmanTable
    blocks: np.ndarray  # (n_mcus, h*v, 64) quantized zig-zag coefficients


def _segment(marker: int, payload: bytes) -> bytes:
    return struct.pack(">BBH", 0xFF, marker, len(payload) + 2) + payload


def _app0_jfif() -> bytes:
    return _segment(APP0, b"JFIF\x00" + struct.pack(">BBBHHBB", 1, 1, 0, 1, 1, 0, 0))


def _dqt(table_id: int, table: np.ndarray) -> bytes:
    zz = to_zigzag(table.astype(np.float64)).astype(np.uint8)
    return _segment(DQT, bytes([table_id]) + zz.tobytes())


def _dht(table_class: int, table_id: int, table: HuffmanTable) -> bytes:
    payload = bytes([(table_class << 4) | table_id])
    payload += bytes(table.bits)
    payload += bytes(table.values)
    return _segment(DHT, payload)


def _sof0(height: int, width: int, components: list[_Component]) -> bytes:
    payload = struct.pack(">BHHB", 8, height, width, len(components))
    for comp in components:
        payload += bytes([comp.comp_id, (comp.h << 4) | comp.v, comp.quant_id])
    return _segment(SOF0, payload)


def _sos(components: list[_Component], dc_ids: list[int], ac_ids: list[int]) -> bytes:
    payload = bytes([len(components)])
    for comp, dc_id, ac_id in zip(components, dc_ids, ac_ids):
        payload += bytes([comp.comp_id, (dc_id << 4) | ac_id])
    payload += bytes([0, 63, 0])  # spectral selection for baseline
    return _segment(SOS, payload)


def _prepare_component(
    channel: np.ndarray,
    mcus_x: int,
    mcus_y: int,
    h: int,
    v: int,
    quant_table: np.ndarray,
) -> np.ndarray:
    """Level-shift, edge-pad to whole MCUs, DCT, quantize: (n_mcus, h*v, 64) zig-zag."""
    rows, cols = channel.shape
    shifted = np.empty((mcus_y * v * BLOCK, mcus_x * h * BLOCK))
    np.subtract(channel, 128.0, out=shifted[:rows, :cols])
    shifted[:rows, cols:] = shifted[:rows, cols - 1 : cols]
    shifted[rows:] = shifted[rows - 1]
    # Blocks in MCU order: each MCU is a v x h tile of blocks.
    tiles = shifted.reshape(mcus_y, v, BLOCK, mcus_x, h, BLOCK).transpose(0, 3, 1, 4, 2, 5)
    coeffs = forward_dct(tiles).reshape(-1, h * v, BLOCK * BLOCK)[..., ZIGZAG_FLAT]
    coeffs /= to_zigzag(quant_table)
    return np.rint(coeffs, out=coeffs).astype(np.int32)


def _dri(interval: int) -> bytes:
    return _segment(DRI, struct.pack(">H", interval))


#: JPEG "size" (bit length) of a magnitude, for every size that fits a
#: symbol's low nibble.
_CATEGORY = np.searchsorted(
    1 << np.arange(15), np.arange(1 << 15), side="right"
).astype(np.uint8)
#: The low ``size`` bits set.
_LOW_BITS = ((1 << np.arange(16)) - 1).astype(np.int32)

# Token columns of a block: its 64 coefficients, then end-of-block, then the
# padding that closes a restart interval.
_EOB = BLOCK * BLOCK
_PAD = _EOB + 1
_COLUMNS = _PAD + 1
_ZRL = 0xF0  # the symbol for sixteen zeros


def _scan_tokens(
    components: list[_Component], interval: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scan as tokens in stream order: ``(token, length, pads)``.

    A token is what one coefficient adds to the stream: a DC difference is
    code + amplitude, a non-zero AC is its ZRLs + code + amplitude (at most
    3 * 11 + 16 + 10 = 59 bits with the Annex K tables), a block whose last
    coefficient is zero ends in an EOB — so every token fits a ``uint64``.
    ``pads`` indexes the empty token that ends each ``interval`` MCUs.

    Only token values are 64 bits wide; lengths, sizes, runs and symbols are
    bytes, which keeps the scan's temporaries below the float64 front end's
    peak on a typical frame.  ``uint64 op int64`` promotes to ``float64`` and
    drops low bits without an error, so shift counts and masks stay unsigned
    here and in `_pack`.
    """
    n_mcus = components[0].blocks.shape[0]
    per_mcu = sum(comp.h * comp.v for comp in components)

    # Blocks in scan order, each DC replaced by its difference from the
    # component's predictor; the two extra columns stay zero.
    coeffs = np.zeros((n_mcus, per_mcu, _COLUMNS), dtype=np.int32)
    dc_row = np.empty(per_mcu, dtype=np.uint16)  # where the block's DC table starts
    slot = 0
    for index, comp in enumerate(components):
        n = comp.h * comp.v
        coeffs[:, slot : slot + n, :_EOB] = comp.blocks
        dc = comp.blocks[:, :, 0].reshape(-1)
        diff = np.diff(dc, prepend=0)
        diff[:: interval * n] = dc[:: interval * n]  # predictor reset to 0
        coeffs[:, slot : slot + n, 0] = diff.reshape(n_mcus, n)
        dc_row[slot : slot + n] = 2 * 256 * index
        slot += n
    tables = [table for comp in components for table in (comp.dc_table, comp.ac_table)]
    codes = np.concatenate([table.codes for table in tables])
    lengths = np.concatenate([table.lengths for table in tables])

    present = coeffs != 0
    present[:, :, 0] = True
    present[:, :, _EOB] = ~present[:, :, _EOB - 1]
    present[interval - 1 :: interval, -1, _PAD] = True
    present[-1, -1, _PAD] = True
    flat = np.flatnonzero(present)
    value = coeffs.reshape(-1)[flat]
    del coeffs, present
    block, column = np.divmod(flat, _COLUMNS)
    column = column.astype(np.int8)
    key = dc_row[block % per_mcu]
    key[column > 0] += 256  # everything but a DC reads the AC table
    del flat, block

    if value.max() >= _CATEGORY.size or value.min() <= -_CATEGORY.size:
        worst = max(int(value.max()), int(value.min()), key=abs)
        raise ValueError(f"coefficient {worst} does not fit 15 magnitude bits")
    size = _CATEGORY[np.abs(value)]
    # Amplitude bits: the value, or value - 1 (one's complement) if negative.
    value += value >> 31
    value &= _LOW_BITS[size]

    # Zeros between a non-zero AC and the token before it in the block.
    run = np.diff(column, prepend=np.int8(0)) - 1
    run[(column == 0) | (column >= _EOB)] = 0
    run = run.view(np.uint8)
    symbol = ((run & 15) << 4) | size
    pads = np.flatnonzero(column == _PAD)
    del column

    long_runs = np.flatnonzero(run > 15)
    zrl_key = key[long_runs] + _ZRL
    zrl_code = codes[zrl_key]
    zrl_length = lengths[zrl_key]
    key += symbol
    token = codes[key]
    length = lengths[key]
    # A symbol without a code is an error, raised for the first one in stream
    # order as the scalar coder meets them (an AC's ZRLs precede its own).
    no_zrl = long_runs[zrl_length == 0]
    symbol[no_zrl] = _ZRL
    length[no_zrl] = 0
    length[pads] = 1  # a pad has no symbol to miss
    if not length.all():
        missing = int(symbol[np.argmin(length)])
        raise ValueError(f"symbol 0x{missing:02X} not in Huffman table")
    length[pads] = 0
    token[pads] = 0
    del key, symbol

    token <<= size
    token |= value.view(np.uint32)
    length += size
    zrls = run[long_runs] >> 4
    for done in range(3):  # a run is at most 62, so at most three ZRLs
        more = zrls > done
        token[long_runs[more]] |= zrl_code[more] << length[long_runs[more]]
        length[long_runs[more]] += zrl_length[more]
    return token, length, pads


def _pack(token: np.ndarray, length: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Tokens of ``length`` bits ending at bit offsets ``stop``, as bytes
    (``token`` and ``stop`` are used up)."""
    stop -= length
    # Bit of its first word at which the token ends; past 64 it spills over.
    end = (stop.astype(np.uint8) & 63) + length
    n_bytes = (stop[-1] + length[-1]) >> 3
    stop >>= 6
    word = stop
    spill = np.flatnonzero(end > 64)
    over = end[spill] - 64
    spilled = token[spill]
    token <<= 64 - np.minimum(end, 64)
    token[spill] = spilled >> over
    spilled <<= 64 - over
    # Tokens do not overlap, so OR-ing them into place loses nothing; those
    # that start in one word are adjacent, and at most one crosses into the next.
    words = np.zeros(int(word[-1]) + 1, dtype=np.uint64)
    first = np.flatnonzero(np.diff(word, prepend=-1))
    words[word[first]] = np.bitwise_or.reduceat(token, first)
    words[word[spill] + 1] |= spilled
    return words.astype(">u8").view(np.uint8)[:n_bytes]


def _encode_scan(
    components: list[_Component], restart_interval: int | None = None
) -> bytes:
    """Entropy-code the scan; with ``restart_interval``, emit RSTn markers
    every that many MCUs and reset the DC predictors (ITU-T T.81 §F.1.2.3).

    All blocks at once: tokens, their bit offsets as a running sum of
    lengths, 64-bit big-endian words, then stuffing and markers in one insert.
    """
    n_mcus = components[0].blocks.shape[0]
    token, length, pads = _scan_tokens(components, restart_interval or n_mcus)
    # Close every interval on a byte boundary with one-bits.
    interval_bits = np.diff(np.cumsum(length, dtype=np.int64)[pads], prepend=0)
    length[pads] = -interval_bits & 7
    token[pads] = _LOW_BITS[length[pads]]
    stop = np.cumsum(length, dtype=np.int64)
    cuts = stop[pads[:-1]] >> 3  # byte offsets between intervals
    data = _pack(token, length, stop)
    del token, length, stop

    # A zero after every 0xFF, RSTn between intervals.  np.insert keeps the
    # listed order at equal offsets: a stuffed zero precedes the marker.
    stuffed = np.flatnonzero(data == 0xFF) + 1
    markers = np.empty((cuts.size, 2), dtype=np.uint8)
    markers[:, 0] = 0xFF
    markers[:, 1] = 0xD0 + np.arange(cuts.size) % 8
    where = np.concatenate([stuffed, np.repeat(cuts, 2)])
    what = np.concatenate([np.zeros(stuffed.size, dtype=np.uint8), markers.reshape(-1)])
    return np.insert(data, where, what).tobytes()


def _check_frame(height: int, width: int, restart_interval: int | None) -> None:
    """SOF0 and DRI carry 16-bit fields, and a baseline frame has no empty side."""
    for name, side in (("height", height), ("width", width)):
        if not 1 <= side <= 0xFFFF:
            raise ValueError(f"image {name} must be in 1..65535, got {side}")
    if restart_interval is not None and not (
        isinstance(restart_interval, (int, np.integer)) and 0 <= restart_interval <= 0xFFFF
    ):
        raise ValueError(
            f"restart_interval must be None, 0 or an integer in 1..65535, "
            f"got {restart_interval!r}"
        )


def encode_gray(
    image: np.ndarray, quality: int = 75, restart_interval: int | None = None
) -> bytes:
    """Encode an ``(h, w)`` uint8 grayscale image to JPEG bytes."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"expected (h, w) grayscale, got shape {image.shape}")
    if image.dtype != np.uint8:
        raise ValueError(f"expected uint8 samples, got {image.dtype}")
    height, width = image.shape
    _check_frame(height, width, restart_interval)
    qt = scale_table(BASE_LUMINANCE, quality)
    mcus_x = (width + BLOCK - 1) // BLOCK
    mcus_y = (height + BLOCK - 1) // BLOCK
    blocks = _prepare_component(image, mcus_x, mcus_y, 1, 1, qt)
    comp = _Component(1, 1, 1, 0, STD_DC_LUMINANCE, STD_AC_LUMINANCE, blocks)

    out = bytearray()
    out += SOI
    out += _app0_jfif()
    out += _dqt(0, qt)
    out += _sof0(height, width, [comp])
    out += _dht(0, 0, STD_DC_LUMINANCE)
    out += _dht(1, 0, STD_AC_LUMINANCE)
    if restart_interval:
        out += _dri(restart_interval)
    out += _sos([comp], [0], [0])
    out += _encode_scan([comp], restart_interval)
    out += EOI
    return bytes(out)


def encode_rgb(
    image: np.ndarray,
    quality: int = 75,
    subsampling: str = "420",
    restart_interval: int | None = None,
) -> bytes:
    """Encode an ``(h, w, 3)`` uint8 RGB image to JPEG bytes."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected (h, w, 3) RGB, got shape {image.shape}")
    if image.dtype != np.uint8:
        raise ValueError(f"expected uint8 samples, got {image.dtype}")
    if subsampling not in ("444", "420"):
        raise ValueError(f"subsampling must be '444' or '420', got {subsampling!r}")
    height, width = image.shape[:2]
    _check_frame(height, width, restart_interval)
    y, cb, cr = ycbcr_planes(image)

    q_lum = scale_table(BASE_LUMINANCE, quality)
    q_chr = scale_table(BASE_CHROMINANCE, quality)

    if subsampling == "420":
        hy = vy = 2
        cb, cr = subsample_420(cb), subsample_420(cr)
    else:
        hy = vy = 1

    mcu_w = hy * BLOCK
    mcu_h = vy * BLOCK
    mcus_x = (width + mcu_w - 1) // mcu_w
    mcus_y = (height + mcu_h - 1) // mcu_h

    y_blocks = _prepare_component(y, mcus_x, mcus_y, hy, vy, q_lum)
    cb_blocks = _prepare_component(cb, mcus_x, mcus_y, 1, 1, q_chr)
    cr_blocks = _prepare_component(cr, mcus_x, mcus_y, 1, 1, q_chr)

    components = [
        _Component(1, hy, vy, 0, STD_DC_LUMINANCE, STD_AC_LUMINANCE, y_blocks),
        _Component(2, 1, 1, 1, STD_DC_CHROMINANCE, STD_AC_CHROMINANCE, cb_blocks),
        _Component(3, 1, 1, 1, STD_DC_CHROMINANCE, STD_AC_CHROMINANCE, cr_blocks),
    ]

    out = bytearray()
    out += SOI
    out += _app0_jfif()
    out += _dqt(0, q_lum)
    out += _dqt(1, q_chr)
    out += _sof0(height, width, components)
    out += _dht(0, 0, STD_DC_LUMINANCE)
    out += _dht(1, 0, STD_AC_LUMINANCE)
    out += _dht(0, 1, STD_DC_CHROMINANCE)
    out += _dht(1, 1, STD_AC_CHROMINANCE)
    if restart_interval:
        out += _dri(restart_interval)
    out += _sos(components, [0, 1, 1], [0, 1, 1])
    out += _encode_scan(components, restart_interval)
    out += EOI
    return bytes(out)
