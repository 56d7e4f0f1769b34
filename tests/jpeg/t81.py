"""Scalar ITU-T T.81 reference: bit I/O, Huffman and amplitude coding, the
inverse transform chain and a baseline sequential decoder.

The product encoder (``repro.jpeg``) codes whole scans array-at-a-time;
nothing in it reads JPEG.  The tests use these primitives as oracles: the
per-symbol encode side rebuilds the scan coder the encoder used to run
(``test_scan_oracle.reference_scan``), and :func:`decode` closes the loop on
the Table IV output path (encode -> decode -> PSNR).  The decoder handles
the subset of JFIF the encoder writes (and common equivalents): 8-bit
baseline SOF0, Huffman entropy coding, 1 or 3 components, 4:4:4 or 4:2:0
sampling, one scan, optional restart markers.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import idctn

from repro.jpeg.color import ycbcr_planes
from repro.jpeg.dct import BLOCK, ZIGZAG_FLAT
from repro.jpeg.huffman import HuffmanTable

# -- bit I/O: MSB first, with JPEG byte stuffing (0xFF -> 0xFF 0x00) ----------------


class BitWriter:
    """MSB-first bit accumulator with JPEG byte stuffing."""

    def __init__(self) -> None:
        self._out = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        """Append the low ``nbits`` of ``value``, most significant first."""
        if nbits < 0 or nbits > 32:
            raise ValueError(f"nbits must be in [0, 32], got {nbits}")
        if nbits == 0:
            return
        if value < 0 or value >= (1 << nbits):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            byte = (self._acc >> self._nbits) & 0xFF
            self._out.append(byte)
            if byte == 0xFF:
                self._out.append(0x00)  # stuffing
        self._acc &= (1 << self._nbits) - 1

    def flush(self) -> bytes:
        """Pad the final partial byte with 1-bits (JPEG convention)."""
        if self._nbits:
            pad = 8 - self._nbits
            self.write((1 << pad) - 1, pad)
        return bytes(self._out)


class BitReader:
    """MSB-first bit reader that undoes JPEG byte stuffing."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0
        self._acc = 0
        self._nbits = 0

    def _pull_byte(self) -> None:
        if self._pos >= len(self._data):
            raise EOFError("entropy-coded segment exhausted")
        byte = self._data[self._pos]
        self._pos += 1
        if byte == 0xFF:
            if self._pos >= len(self._data):
                raise EOFError("truncated stuffing sequence")
            marker = self._data[self._pos]
            if marker == 0x00:
                self._pos += 1  # stuffed 0xFF
            else:
                raise EOFError(f"unexpected marker 0xFF{marker:02X} inside scan")
        self._acc = (self._acc << 8) | byte
        self._nbits += 8

    def read(self, nbits: int) -> int:
        """Read ``nbits`` (MSB first)."""
        if nbits < 0 or nbits > 32:
            raise ValueError(f"nbits must be in [0, 32], got {nbits}")
        while self._nbits < nbits:
            self._pull_byte()
        self._nbits -= nbits
        value = (self._acc >> self._nbits) & ((1 << nbits) - 1)
        self._acc &= (1 << self._nbits) - 1
        return value


# -- Huffman symbols and amplitudes (T.81 F.1.2) --------------------------------------


def encode_symbol(table: HuffmanTable, writer: BitWriter, symbol: int) -> None:
    length = int(table.lengths[symbol]) if 0 <= symbol <= 255 else 0
    if not length:
        raise ValueError(f"symbol 0x{symbol:02X} not in Huffman table")
    writer.write(int(table.codes[symbol]), length)


@functools.lru_cache(maxsize=None)
def _decode_map(table: HuffmanTable) -> dict[tuple[int, int], int]:
    return {(int(table.lengths[s]), int(table.codes[s])): s for s in table.values}


def decode_symbol(table: HuffmanTable, reader: BitReader) -> int:
    decode = _decode_map(table)
    code = 0
    for length in range(1, 17):
        code = (code << 1) | reader.read(1)
        symbol = decode.get((length, code))
        if symbol is not None:
            return symbol
    raise ValueError("invalid Huffman code in scan")


def magnitude_category(value: int) -> int:
    """JPEG "size" of a coefficient difference: bits needed for |value|."""
    magnitude = abs(value)
    size = 0
    while magnitude:
        magnitude >>= 1
        size += 1
    return size


def encode_magnitude(writer: BitWriter, value: int, size: int) -> None:
    """Append the amplitude bits: negatives use one's-complement form."""
    if size == 0:
        return
    if value < 0:
        value += (1 << size) - 1
    writer.write(value, size)


def decode_magnitude(reader: BitReader, size: int) -> int:
    if size == 0:
        return 0
    bits = reader.read(size)
    if bits < (1 << (size - 1)):  # negative branch
        bits -= (1 << size) - 1
    return bits


# -- blocks, transforms and colour ---------------------------------------------------

#: Inverse zig-zag permutation: natural flat index -> zig-zag position.
INV_ZIGZAG_FLAT = np.argsort(ZIGZAG_FLAT)

_INVERSE = np.array(
    [
        [1.0, 0.0, 1.402],
        [1.0, -0.344136, -0.714136],
        [1.0, 1.772, 0.0],
    ]
)


def from_zigzag(scan: np.ndarray) -> np.ndarray:
    """Inverse of ``to_zigzag``; returns ``(..., 8, 8)``."""
    scan = np.asarray(scan)
    flat = scan[..., INV_ZIGZAG_FLAT]
    return flat.reshape(*scan.shape[:-1], BLOCK, BLOCK)


def inverse_dct(coeffs: np.ndarray) -> np.ndarray:
    return idctn(coeffs, type=2, norm="ortho", axes=(-2, -1))


def dequantize(quantized: np.ndarray, table: np.ndarray) -> np.ndarray:
    return quantized.astype(np.float64) * table


def blockify(channel: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Split an ``(h, w)`` channel into ``(n, 8, 8)`` edge-padded blocks in
    raster order; returns ``(blocks, blocks_high, blocks_wide)``."""
    h, w = channel.shape
    bh = (h + BLOCK - 1) // BLOCK
    bw = (w + BLOCK - 1) // BLOCK
    padded = np.pad(channel, ((0, bh * BLOCK - h), (0, bw * BLOCK - w)), mode="edge")
    blocks = (
        padded.reshape(bh, BLOCK, bw, BLOCK).transpose(0, 2, 1, 3).reshape(-1, BLOCK, BLOCK)
    )
    return blocks, bh, bw


def unblockify(blocks: np.ndarray, bh: int, bw: int, h: int, w: int) -> np.ndarray:
    """Reassemble raster-order ``(n, 8, 8)`` blocks, cropping the padding."""
    grid = blocks.reshape(bh, bw, BLOCK, BLOCK).transpose(0, 2, 1, 3)
    return grid.reshape(bh * BLOCK, bw * BLOCK)[:h, :w]


def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """``(h, w, 3)`` uint8 RGB -> float YCbCr with chroma centred on 128."""
    return np.moveaxis(ycbcr_planes(rgb), 0, -1)


def ycbcr_to_rgb(ycbcr: np.ndarray) -> np.ndarray:
    """Float YCbCr -> uint8 RGB (clipped)."""
    ycbcr = np.asarray(ycbcr, dtype=np.float64)
    if ycbcr.ndim != 3 or ycbcr.shape[2] != 3:
        raise ValueError(f"expected (h, w, 3), got {ycbcr.shape}")
    shifted = ycbcr.copy()
    shifted[..., 1:] -= 128.0
    rgb = shifted @ _INVERSE.T
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)


def upsample_420(channel: np.ndarray, h: int, w: int) -> np.ndarray:
    """Nearest-neighbor chroma upsampling back to ``(h, w)``."""
    up = np.repeat(np.repeat(channel, 2, axis=0), 2, axis=1)
    return up[:h, :w]


# -- the decoder ---------------------------------------------------------------------


class JpegError(ValueError):
    """Malformed stream or unsupported JPEG feature."""


@dataclass
class _Component:
    comp_id: int
    h: int
    v: int
    quant_id: int
    dc_id: int = 0
    ac_id: int = 0


@dataclass
class _DecoderState:
    width: int = 0
    height: int = 0
    components: list[_Component] = field(default_factory=list)
    quant_tables: dict[int, np.ndarray] = field(default_factory=dict)
    dc_tables: dict[int, HuffmanTable] = field(default_factory=dict)
    ac_tables: dict[int, HuffmanTable] = field(default_factory=dict)
    restart_interval: int = 0  # MCUs between RSTn markers (0 = none)


def _parse_dqt(payload: bytes, state: _DecoderState) -> None:
    pos = 0
    while pos < len(payload):
        pq_tq = payload[pos]
        pos += 1
        precision, table_id = pq_tq >> 4, pq_tq & 0x0F
        if precision != 0:
            raise JpegError("only 8-bit quantization tables supported")
        if pos + 64 > len(payload):
            raise JpegError("truncated DQT")
        zz = np.frombuffer(payload[pos : pos + 64], dtype=np.uint8).astype(np.int32)
        state.quant_tables[table_id] = from_zigzag(zz)
        pos += 64


def _parse_dht(payload: bytes, state: _DecoderState) -> None:
    pos = 0
    while pos < len(payload):
        tc_th = payload[pos]
        pos += 1
        table_class, table_id = tc_th >> 4, tc_th & 0x0F
        if pos + 16 > len(payload):
            raise JpegError("truncated DHT")
        bits = tuple(payload[pos : pos + 16])
        pos += 16
        count = sum(bits)
        if pos + count > len(payload):
            raise JpegError("truncated DHT values")
        values = tuple(payload[pos : pos + count])
        pos += count
        table = HuffmanTable(bits, values)
        if table_class == 0:
            state.dc_tables[table_id] = table
        elif table_class == 1:
            state.ac_tables[table_id] = table
        else:
            raise JpegError(f"bad Huffman table class {table_class}")


def _parse_sof0(payload: bytes, state: _DecoderState) -> None:
    precision, height, width, ncomp = struct.unpack(">BHHB", payload[:6])
    if precision != 8:
        raise JpegError(f"only 8-bit precision supported, got {precision}")
    state.width, state.height = width, height
    pos = 6
    for _ in range(ncomp):
        comp_id, sampling, quant_id = payload[pos : pos + 3]
        state.components.append(
            _Component(comp_id, sampling >> 4, sampling & 0x0F, quant_id)
        )
        pos += 3


def _parse_sos(payload: bytes, state: _DecoderState) -> None:
    ncomp = payload[0]
    pos = 1
    for _ in range(ncomp):
        comp_id, tables = payload[pos : pos + 2]
        pos += 2
        comp = next((c for c in state.components if c.comp_id == comp_id), None)
        if comp is None:
            raise JpegError(f"scan references unknown component {comp_id}")
        comp.dc_id, comp.ac_id = tables >> 4, tables & 0x0F
    ss, se, ahl = payload[pos : pos + 3]
    if (ss, se) != (0, 63):
        raise JpegError("progressive/partial scans not supported")


def _decode_block(
    reader: BitReader,
    predictor: int,
    dc_table: HuffmanTable,
    ac_table: HuffmanTable,
) -> tuple[np.ndarray, int]:
    zz = np.zeros(64, dtype=np.int32)
    size = decode_symbol(dc_table, reader)
    dc = predictor + decode_magnitude(reader, size)
    zz[0] = dc
    k = 1
    while k <= 63:
        symbol = decode_symbol(ac_table, reader)
        if symbol == 0x00:  # EOB
            break
        run, size = symbol >> 4, symbol & 0x0F
        if size == 0:
            if run != 15:
                raise JpegError(f"invalid AC symbol 0x{symbol:02X}")
            k += 16  # ZRL
            continue
        k += run
        if k > 63:
            raise JpegError("AC run overflows block")
        zz[k] = decode_magnitude(reader, size)
        k += 1
    return zz, dc


def _split_restart_segments(scan: bytes) -> list[bytes]:
    """Split the entropy-coded segment at RSTn markers (byte-aligned by
    construction; stuffed 0xFF00 pairs are skipped, not split)."""
    segments: list[bytes] = []
    start = 0
    i = 0
    while i < len(scan) - 1:
        if scan[i] == 0xFF:
            follower = scan[i + 1]
            if 0xD0 <= follower <= 0xD7:
                segments.append(scan[start:i])
                start = i + 2
                i += 2
                continue
            i += 2  # stuffed byte (or trailing marker caught by caller)
            continue
        i += 1
    segments.append(scan[start:])
    return segments


def decode(data: bytes) -> np.ndarray:
    """Decode JPEG bytes to ``(h, w)`` grayscale or ``(h, w, 3)`` RGB uint8."""
    if data[:2] != b"\xff\xd8":
        raise JpegError("missing SOI marker")
    state = _DecoderState()
    pos = 2
    scan_start = None
    while pos < len(data):
        if data[pos] != 0xFF:
            raise JpegError(f"expected marker at byte {pos}")
        marker = data[pos + 1]
        pos += 2
        if marker == 0xD9:  # EOI
            break
        if marker == 0x01 or 0xD0 <= marker <= 0xD7:
            continue  # standalone markers
        (length,) = struct.unpack(">H", data[pos : pos + 2])
        payload = data[pos + 2 : pos + length]
        if marker == 0xDB:
            _parse_dqt(payload, state)
        elif marker == 0xDD:
            (state.restart_interval,) = struct.unpack(">H", payload[:2])
        elif marker == 0xC4:
            _parse_dht(payload, state)
        elif marker == 0xC0:
            _parse_sof0(payload, state)
        elif marker in (0xC1, 0xC2, 0xC3, 0xC5, 0xC6, 0xC7):
            raise JpegError(f"unsupported frame type 0xFF{marker:02X}")
        elif marker == 0xDA:
            _parse_sos(payload, state)
            scan_start = pos + length
            break
        # APPn / COM / others: skip
        pos += length

    if scan_start is None:
        raise JpegError("no scan found")
    if not state.components:
        raise JpegError("no frame header before scan")
    eoi = data.rfind(b"\xff\xd9")
    if eoi <= scan_start:
        raise JpegError("missing EOI after scan")
    scan = data[scan_start:eoi]
    if state.restart_interval:
        segments = _split_restart_segments(scan)
    else:
        segments = [scan]
    segment_index = 0
    reader = BitReader(segments[0])

    hmax = max(c.h for c in state.components)
    vmax = max(c.v for c in state.components)
    mcus_x = (state.width + hmax * BLOCK - 1) // (hmax * BLOCK)
    mcus_y = (state.height + vmax * BLOCK - 1) // (vmax * BLOCK)

    grids = {
        c.comp_id: np.zeros((mcus_y * c.v, mcus_x * c.h, 64), dtype=np.int32)
        for c in state.components
    }
    predictors = {c.comp_id: 0 for c in state.components}

    for my in range(mcus_y):
        for mx in range(mcus_x):
            mcu_index = my * mcus_x + mx
            if (
                state.restart_interval
                and mcu_index
                and mcu_index % state.restart_interval == 0
            ):
                segment_index += 1
                if segment_index >= len(segments):
                    raise JpegError("missing restart marker in scan")
                reader = BitReader(segments[segment_index])
                for comp_id in predictors:
                    predictors[comp_id] = 0
            for comp in state.components:
                dc_table = state.dc_tables.get(comp.dc_id)
                ac_table = state.ac_tables.get(comp.ac_id)
                if dc_table is None or ac_table is None:
                    raise JpegError("scan uses undefined Huffman table")
                for by in range(comp.v):
                    for bx in range(comp.h):
                        zz, dc = _decode_block(
                            reader, predictors[comp.comp_id], dc_table, ac_table
                        )
                        predictors[comp.comp_id] = dc
                        grids[comp.comp_id][my * comp.v + by, mx * comp.h + bx] = zz

    channels = []
    for comp in state.components:
        table = state.quant_tables.get(comp.quant_id)
        if table is None:
            raise JpegError(f"component {comp.comp_id} uses undefined quant table")
        grid = grids[comp.comp_id]
        bh, bw = grid.shape[:2]
        coeffs = dequantize(from_zigzag(grid.reshape(-1, 64)), table)
        pixels = inverse_dct(coeffs) + 128.0
        comp_w = -(-state.width * comp.h // hmax)  # ceil division
        comp_h = -(-state.height * comp.v // vmax)
        channels.append(unblockify(pixels, bh, bw, comp_h, comp_w))

    if len(channels) == 1:
        return np.clip(np.round(channels[0]), 0, 255).astype(np.uint8)
    if len(channels) != 3:
        raise JpegError(f"unsupported component count {len(channels)}")
    y, cb, cr = channels
    if cb.shape != y.shape:
        cb = upsample_420(cb, state.height, state.width)
        cr = upsample_420(cr, state.height, state.width)
    ycbcr = np.stack([y, cb, cr], axis=-1)
    return ycbcr_to_rgb(ycbcr)
