"""Bit I/O and Huffman layer tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jpeg.huffman import (
    HuffmanTable,
    STD_AC_CHROMINANCE,
    STD_AC_LUMINANCE,
    STD_DC_CHROMINANCE,
    STD_DC_LUMINANCE,
)
from tests.jpeg.t81 import (
    BitReader,
    BitWriter,
    decode_magnitude,
    decode_symbol,
    encode_magnitude,
    encode_symbol,
    magnitude_category,
)


class TestBitWriter:
    def test_msb_first_packing(self):
        w = BitWriter()
        w.write(0b101, 3)
        w.write(0b01100, 5)
        assert w.flush() == bytes([0b10101100])

    def test_flush_pads_with_ones(self):
        w = BitWriter()
        w.write(0b0, 1)
        assert w.flush() == bytes([0b01111111])

    def test_byte_stuffing(self):
        w = BitWriter()
        w.write(0xFF, 8)
        assert w.flush() == b"\xff\x00"

    def test_value_range_checked(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(4, 2)
        with pytest.raises(ValueError):
            w.write(-1, 3)
        with pytest.raises(ValueError):
            w.write(0, 40)

    def test_zero_bits_noop(self):
        w = BitWriter()
        w.write(0, 0)
        assert w.flush() == b""


class TestBitReader:
    def test_read_back(self):
        r = BitReader(bytes([0b10101100]))
        assert r.read(3) == 0b101
        assert r.read(5) == 0b01100

    def test_unstuffing(self):
        r = BitReader(b"\xff\x00\x80")
        assert r.read(8) == 0xFF
        assert r.read(1) == 1

    def test_eof(self):
        r = BitReader(b"\x00")
        r.read(8)
        with pytest.raises(EOFError):
            r.read(1)

    def test_marker_in_scan_rejected(self):
        r = BitReader(b"\xff\xd9")
        with pytest.raises(EOFError, match="marker"):
            r.read(8)

    @given(values=st.lists(st.tuples(st.integers(1, 16), st.integers(0, 2**16 - 1)),
                           min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_property_roundtrip(self, values):
        w = BitWriter()
        clipped = [(n, v & ((1 << n) - 1)) for n, v in values]
        for n, v in clipped:
            w.write(v, n)
        r = BitReader(w.flush())
        for n, v in clipped:
            assert r.read(n) == v


class TestMagnitude:
    @pytest.mark.parametrize(
        "value,size", [(0, 0), (1, 1), (-1, 1), (2, 2), (-3, 2), (255, 8), (-1024, 11)]
    )
    def test_category(self, value, size):
        assert magnitude_category(value) == size

    @given(value=st.integers(-2047, 2047))
    @settings(max_examples=120, deadline=None)
    def test_property_roundtrip(self, value):
        size = magnitude_category(value)
        w = BitWriter()
        encode_magnitude(w, value, size)
        w.write(0xF, 4)  # guard bits so flush padding can't alias
        r = BitReader(w.flush())
        assert decode_magnitude(r, size) == value


class TestHuffmanTables:
    ALL = [STD_DC_LUMINANCE, STD_DC_CHROMINANCE, STD_AC_LUMINANCE, STD_AC_CHROMINANCE]

    def test_standard_table_sizes(self):
        assert len(STD_DC_LUMINANCE.values) == 12
        assert len(STD_DC_CHROMINANCE.values) == 12
        assert len(STD_AC_LUMINANCE.values) == 162
        assert len(STD_AC_CHROMINANCE.values) == 162

    def test_known_codes(self):
        """Spot-check Annex K: DC lum symbol 0 -> code 00 (2 bits)."""
        w = BitWriter()
        encode_symbol(STD_DC_LUMINANCE, w, 0)
        w.write(1, 1)
        r = BitReader(w.flush())
        assert r.read(2) == 0b00

    @pytest.mark.parametrize("table", ALL)
    def test_all_symbols_roundtrip(self, table):
        w = BitWriter()
        for symbol in table.values:
            encode_symbol(table, w, symbol)
        r = BitReader(w.flush())
        for symbol in table.values:
            assert decode_symbol(table, r) == symbol

    def test_prefix_free(self):
        """No code may be a prefix of another (canonical construction)."""
        for table in self.ALL:
            codes = sorted(
                ((int(table.codes[s]), int(table.lengths[s])) for s in table.values),
                key=lambda cl: cl[1],
            )
            for i, (code_a, len_a) in enumerate(codes):
                for code_b, len_b in codes[i + 1 :]:
                    assert not (
                        len_b >= len_a and (code_b >> (len_b - len_a)) == code_a
                    ), "prefix violation"

    def test_unknown_symbol_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            encode_symbol(STD_DC_LUMINANCE, w, 0x99)

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            HuffmanTable(bits=(1,) * 8, values=(0,))
        with pytest.raises(ValueError):
            HuffmanTable(bits=(0,) * 16, values=(1,))
