"""Canonical Huffman coding with the standard JPEG tables (ITU-T T.81 K.3).

A table is specified exactly as in the DHT marker: ``bits[i]`` = number of
codes of length ``i+1`` (16 entries), followed by the symbol values in code
order.  Codes are assigned canonically (shorter first, counting upward).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitio import BitReader, BitWriter


@dataclass(frozen=True)
class HuffmanTable:
    """One DC or AC table: DHT payload plus encode/decode maps.

    ``codes[s]`` / ``lengths[s]`` are the same encode map as read-only
    256-entry arrays for the array-at-a-time scan coder; ``lengths[s] == 0``
    means symbol ``s`` has no code.
    """

    bits: tuple[int, ...]  # 16 counts
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) != 16:
            raise ValueError(f"bits must have 16 entries, got {len(self.bits)}")
        if sum(self.bits) != len(self.values):
            raise ValueError(
                f"bits declare {sum(self.bits)} codes but {len(self.values)} values given"
            )
        if any(not 0 <= symbol <= 255 for symbol in self.values):
            raise ValueError("Huffman symbols must be bytes (0..255)")
        encode: dict[int, tuple[int, int]] = {}
        decode: dict[tuple[int, int], int] = {}
        codes = np.zeros(256, dtype=np.uint64)
        lengths = np.zeros(256, dtype=np.uint8)
        code = 0
        index = 0
        for length in range(1, 17):
            for _ in range(self.bits[length - 1]):
                symbol = self.values[index]
                encode[symbol] = (code, length)
                decode[(length, code)] = symbol
                codes[symbol], lengths[symbol] = code, length
                code += 1
                index += 1
            code <<= 1
        codes.flags.writeable = lengths.flags.writeable = False
        # Frozen dataclass: derived state goes in through object.__setattr__.
        object.__setattr__(self, "_encode", encode)
        object.__setattr__(self, "_decode", decode)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "lengths", lengths)

    def encode_symbol(self, writer: BitWriter, symbol: int) -> None:
        try:
            code, length = self._encode[symbol]  # type: ignore[attr-defined]
        except KeyError:
            raise ValueError(f"symbol 0x{symbol:02X} not in Huffman table") from None
        writer.write(code, length)

    def decode_symbol(self, reader: BitReader) -> int:
        code = 0
        for length in range(1, 17):
            code = (code << 1) | reader.read_bit()
            symbol = self._decode.get((length, code))  # type: ignore[attr-defined]
            if symbol is not None:
                return symbol
        raise ValueError("invalid Huffman code in scan")


# ---------------------------------------------------------------------------
# Standard tables, Annex K.3 of ITU-T T.81.
# ---------------------------------------------------------------------------

STD_DC_LUMINANCE = HuffmanTable(
    bits=(0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0),
    values=tuple(range(12)),
)

STD_DC_CHROMINANCE = HuffmanTable(
    bits=(0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0),
    values=tuple(range(12)),
)

STD_AC_LUMINANCE = HuffmanTable(
    bits=(0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D),
    values=(
        0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
        0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
        0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
        0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
        0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
        0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
        0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
        0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
        0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
        0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
        0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
        0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
        0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
        0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
        0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
        0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
        0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
        0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
        0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
        0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
        0xF9, 0xFA,
    ),
)

STD_AC_CHROMINANCE = HuffmanTable(
    bits=(0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77),
    values=(
        0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
        0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
        0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
        0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
        0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
        0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
        0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
        0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
        0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
        0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
        0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
        0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
        0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
        0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
        0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
        0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
        0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
        0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
        0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
        0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
        0xF9, 0xFA,
    ),
)


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
