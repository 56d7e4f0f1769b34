"""The TIFF reader against a whole-file reference, plus its cost gates.

``reference_read_tiff`` is the reader as it stood before reads went straight
into the caller's plane: it holds the entire file in memory, copies strip by
strip and checks each strip against the file's length.  The reader under
test must agree with it bitwise on every layout the format allows — strips
permuted, gaps between them, the IFD before the pixels, out-of-line arrays
past the tail the first read takes — and raise the same ``TiffError`` text
for a file cut short anywhere.
"""

from __future__ import annotations

import io
import os
import struct
import tracemalloc
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.imaging.tiff as tiff
from repro.imaging import TiffError, TiffInfo, TiffStack, read_tiff, read_tiff_info, write_tiff
from repro.io import Assignment, StackGeometry, owned_chunks
from repro.io.stackload import read_chunk

SAMPLE = {  # dtype -> (bits, sample format)
    np.dtype(np.uint8): (8, 1),
    np.dtype(np.uint16): (16, 1),
    np.dtype(np.uint32): (32, 1),
    np.dtype(np.float32): (32, 3),
}

# -- the reference: the whole-file reader -------------------------------------------


def reference_read_tiff_info(data: bytes) -> TiffInfo:
    if len(data) < 8:
        raise TiffError("file too small for a TIFF header")
    order_mark = data[:2]
    if order_mark == b"II":
        bo = "<"
    elif order_mark == b"MM":
        bo = ">"
    else:
        raise TiffError(f"bad byte-order mark {order_mark!r}")
    magic, ifd_offset = struct.unpack(bo + "HI", data[2:8])
    if magic != 42:
        raise TiffError(f"bad TIFF magic {magic}")
    if ifd_offset + 2 > len(data):
        raise TiffError("IFD offset out of range")
    (n_entries,) = struct.unpack_from(bo + "H", data, ifd_offset)
    fields: dict[int, tuple[int, ...]] = {}
    pos = ifd_offset + 2
    for _ in range(n_entries):
        if pos + 12 > len(data):
            raise TiffError("truncated IFD entry")
        tag, ftype, count = struct.unpack_from(bo + "HHI", data, pos)
        value_bytes = data[pos + 8 : pos + 12]
        if ftype in (3, 4):
            total = (2 if ftype == 3 else 4) * count
            if total <= 4:
                raw = value_bytes[:total]
            else:
                (offset,) = struct.unpack(bo + "I", value_bytes)
                if offset + total > len(data):
                    raise TiffError(f"tag {tag}: out-of-line value beyond EOF")
                raw = data[offset : offset + total]
            fields[tag] = struct.unpack(bo + ("H" if ftype == 3 else "I") * count, raw)
        pos += 12

    def one(tag: int, default: int | None = None) -> int:
        if tag in fields:
            return int(fields[tag][0])
        if default is None:
            raise TiffError(f"required tag {tag} missing")
        return default

    width, height = one(256), one(257)
    bits, compression, samples, sample_format = one(258, 1), one(259, 1), one(277, 1), one(339, 1)
    if compression != 1:
        raise TiffError(f"unsupported compression {compression}")
    if samples != 1:
        raise TiffError(f"only single-sample grayscale supported, got {samples}")
    if 273 not in fields:
        raise TiffError("strip offsets missing")
    strip_offsets = tuple(int(v) for v in fields[273])
    if 279 in fields:
        strip_byte_counts = tuple(int(v) for v in fields[279])
    else:
        if len(strip_offsets) != 1:
            raise TiffError("StripByteCounts missing with multiple strips")
        strip_byte_counts = (width * height * (bits // 8),)
    dtype = {sample: dt for dt, sample in SAMPLE.items()}.get((bits, sample_format))
    if dtype is None:
        raise TiffError(f"unsupported sample: {bits}-bit, format {sample_format}")
    return TiffInfo(width, height, dtype, strip_offsets, strip_byte_counts,
                    one(278, height), bo)


def reference_read_tiff(data: bytes) -> np.ndarray:
    info = reference_read_tiff_info(data)
    out = np.empty(info.height * info.width, dtype=info.dtype)
    sample_dtype = info.dtype.newbyteorder(info.byte_order)
    cursor = 0
    for offset, count in zip(info.strip_offsets, info.strip_byte_counts):
        if offset + count > len(data):
            raise TiffError("strip extends beyond end of file")
        strip = np.frombuffer(data[offset : offset + count], dtype=sample_dtype)
        if cursor + strip.size > out.size:
            raise TiffError("strips larger than declared image size")
        out[cursor : cursor + strip.size] = strip
        cursor += strip.size
    if cursor != out.size:
        raise TiffError(f"strips cover {cursor} samples, image needs {out.size}")
    return out.reshape(info.height, info.width)


# -- files in every layout -----------------------------------------------------------


def build_tiff(image, bo, rows, order, gaps, ifd_first, far):
    """A TIFF of ``image`` whose strips sit in file order ``order`` with
    ``gaps[k]`` filler bytes before the k-th, the IFD at byte 8 or last, and
    ``far`` filler bytes before the out-of-line arrays.  Returns the bytes
    and the ``(start, end)`` of every region: header, IFD, arrays, strips."""
    height, width = image.shape
    bits, sample_format = SAMPLE[image.dtype]
    pixels = image.astype(image.dtype.newbyteorder(bo))
    strips = [pixels[r : r + rows].tobytes() for r in range(0, height, rows)]
    n = len(strips)
    ifd_size = 2 + 12 * 10 + 4
    cursor = 8 + (ifd_size if ifd_first else 0)
    offsets = [0] * n
    for k, s in enumerate(order):
        cursor += gaps[k]
        offsets[s] = cursor
        cursor += len(strips[s])
    cursor += far
    arrays_at = cursor
    if n > 1:
        cursor += 8 * n
    ifd_at = 8 if ifd_first else cursor
    blob = bytearray(b"\xee" * (cursor + (0 if ifd_first else ifd_size)))
    counts = [len(s) for s in strips]
    if n > 1:
        struct.pack_into(f"{bo}{2 * n}I", blob, arrays_at, *offsets, *counts)
        strip_fields = (arrays_at, arrays_at + 4 * n)
    else:
        strip_fields = (offsets[0], counts[0])
    entries = [
        (256, 4, 1, width), (257, 4, 1, height), (258, 3, 1, bits), (259, 3, 1, 1),
        (262, 3, 1, 1), (273, 4, n, strip_fields[0]), (277, 3, 1, 1), (278, 4, 1, rows),
        (279, 4, n, strip_fields[1]), (339, 3, 1, sample_format),
    ]
    struct.pack_into(bo + "2sHI", blob, 0, b"II" if bo == "<" else b"MM", 42, ifd_at)
    struct.pack_into(bo + "H", blob, ifd_at, len(entries))
    for i, (tag, ftype, count, value) in enumerate(entries):
        at = ifd_at + 2 + 12 * i
        struct.pack_into(bo + "HHI", blob, at, tag, ftype, count)
        if ftype == 3 and count == 1:  # a SHORT sits left-justified in the value field
            struct.pack_into(bo + "HH", blob, at + 8, value, 0)
        else:
            struct.pack_into(bo + "I", blob, at + 8, value)
    struct.pack_into(bo + "I", blob, ifd_at + 2 + 12 * len(entries), 0)
    for s, strip in enumerate(strips):
        blob[offsets[s] : offsets[s] + len(strip)] = strip
    regions = [(0, 8), (ifd_at, ifd_at + ifd_size)]
    if n > 1:
        regions.append((arrays_at, arrays_at + 8 * n))
    regions += [(offsets[s], offsets[s] + counts[s]) for s in range(n)]
    return bytes(blob), regions


@st.composite
def tiff_files(draw):
    dtype = draw(st.sampled_from(sorted(SAMPLE, key=str)))
    height, width = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rows = draw(st.integers(1, height + 3))
    n = -(-height // rows)
    raw = draw(st.binary(min_size=height * width * dtype.itemsize,
                         max_size=height * width * dtype.itemsize))
    image = np.frombuffer(raw, dtype=dtype).reshape(height, width)
    order = draw(st.permutations(range(n)) | st.just(list(range(n))))
    gaps = draw(st.lists(st.sampled_from([0, 0, 1, 3, 17]), min_size=n, max_size=n))
    far = draw(st.sampled_from([0, 0, 5000]))  # 5000: the arrays miss the 4 KiB tail
    blob, regions = build_tiff(image, draw(st.sampled_from("<>")), rows, order, gaps,
                               draw(st.booleans()), far)
    return image, blob, regions


def outcome(read):
    """``("ok", ...)`` with every field or byte of the result, or
    ``("error", type, text)``."""
    try:
        result = read()
    except TiffError as exc:
        return ("error", type(exc), str(exc))
    if isinstance(result, TiffInfo):
        return ("ok", astuple(result))
    return ("ok", result.dtype, result.shape, result.tobytes())


def readers(path, blob, info):
    """Every way to call the reader: path or file object, ``out`` or not
    (given ``info``, the plane is full of junk the read must replace)."""
    def junk():
        size = info.height * info.width * info.dtype.itemsize
        return np.frombuffer(b"\x5a" * size, info.dtype).reshape(info.height, info.width).copy()

    yield "path", lambda: read_tiff(path)
    yield "file", lambda: read_tiff(io.BytesIO(blob))
    if info is not None:
        yield "path, out", lambda: read_tiff(path, out=junk())
        yield "file, out", lambda: read_tiff(io.BytesIO(blob), out=junk())


SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestAgainstReference:
    @given(case=tiff_files())
    @SETTINGS
    def test_every_layout_reads_bitwise_equal(self, tmp_path, case):
        image, blob, _ = case
        path = tmp_path / "slice.tif"
        path.write_bytes(blob)
        expected = reference_read_tiff(blob)
        assert expected.tobytes() == image.tobytes()
        info = reference_read_tiff_info(blob)
        for source in (blob, path):
            assert outcome(lambda: read_tiff_info(source)) == ("ok", astuple(info))
        for how, read in readers(path, blob, info):
            assert outcome(read) == outcome(lambda: expected), how

    @given(case=tiff_files(), data=st.data())
    @SETTINGS
    def test_a_file_cut_anywhere_fails_as_the_reference_does(self, tmp_path, case, data):
        _, blob, regions = case
        start, end = data.draw(st.sampled_from(regions), label="region")
        short = blob[: data.draw(st.integers(start, end - 1), label="cut")]
        path = tmp_path / "slice.tif"
        path.write_bytes(short)
        want_info = outcome(lambda: reference_read_tiff_info(short))
        for source in (short, path):
            assert outcome(lambda: read_tiff_info(source)) == want_info
        info = reference_read_tiff_info(short) if want_info[0] == "ok" else None
        expected = outcome(lambda: reference_read_tiff(short))
        for how, read in readers(path, short, info):
            assert outcome(read) == expected, how


class TestOut:
    def test_wrong_shape_or_dtype_is_a_typed_error(self, tmp_path, rng):
        path = tmp_path / "x.tif"
        write_tiff(path, rng.integers(0, 255, (6, 5)).astype(np.uint16))
        for source in (lambda: path, lambda: open(path, "rb")):
            with pytest.raises(TiffError, match="out is uint16 \\(5, 6\\)"):
                read_tiff(source(), out=np.empty((5, 6), np.uint16))
            with pytest.raises(TiffError, match="out is uint8"):
                read_tiff(source(), out=np.empty((6, 5), np.uint8))

    def test_a_plane_that_cannot_take_the_bytes_is_a_type_error(self, tmp_path):
        path = tmp_path / "x.tif"
        write_tiff(path, np.zeros((4, 6), np.uint8))
        readonly = np.zeros((4, 6), np.uint8)
        readonly.flags.writeable = False
        for out in (np.zeros((6, 4), np.uint8).T, readonly, [[0] * 6] * 4):
            with pytest.raises(TypeError, match="writable C-contiguous"):
                read_tiff(path, out=out)

    def test_out_is_filled_and_returned(self, tmp_path, rng):
        image = rng.random((9, 7)).astype(np.float32)
        path = tmp_path / "x.tif"
        write_tiff(path, image, rows_per_strip=2)
        plane = np.full((9, 7), np.nan, np.float32)
        assert read_tiff(path, out=plane) is plane
        assert np.array_equal(plane, image)


# -- cost gates ----------------------------------------------------------------------


class CountingOs:
    """Stands in for ``os`` inside ``repro.imaging.tiff``: counts each call."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()

    def __getattr__(self, name):
        attr = getattr(os, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


class TestCost:
    @pytest.mark.parametrize("dtype", sorted(SAMPLE, key=str))
    @pytest.mark.parametrize("rows_per_strip", [1, 64, 256])
    def test_one_read_per_slice_on_the_writers_layout(self, tmp_path, monkeypatch, dtype,
                                                      rows_per_strip):
        """``os.open``, one ``os.preadv``, ``os.close``: nothing else drops the
        interpreter lock (the whole-file reader went through ``FileIO``:
        open, fstat, two reads, close)."""
        stack = TiffStack(tmp_path)
        for z in range(4):
            write_tiff(stack.slice_path(z), np.full((256, 256), z, dtype), rows_per_strip)
        counting = CountingOs()
        monkeypatch.setattr(tiff, "os", counting, raising=False)
        plane = np.empty((256, 256), dtype)
        for z in range(4):
            stack.read_slice(z, out=plane)
            assert (plane == z).all()
        assert counting.calls == {"open": 4, "preadv": 4, "close": 4}

    def test_without_out_the_plane_is_the_only_large_allocation(self, tmp_path):
        path = tmp_path / "x.tif"
        write_tiff(path, np.ones((256, 256), np.float32))
        read_tiff(path)  # warm every code path once
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            image = read_tiff(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert (image == 1).all()
        assert peak - image.nbytes < 4096

    def test_a_round_robin_rank_reads_into_its_blocks_without_staging(self, tmp_path):
        """The 16 slices one of 4 round-robin ranks owns at the benchmark's
        256 x 256 float32 geometry: nothing but the blocks themselves is
        allocated beyond 64 KiB at peak (the whole-file reader held a file's
        bytes, a decoded plane and the ``np.stack`` copy: ~390 KiB more)."""
        geometry = StackGeometry(256, 256, 64, 4)
        chunks = owned_chunks(geometry, 4, 0, Assignment.ROUND_ROBIN)
        assert len(chunks) == 16
        stack = TiffStack(tmp_path)
        image = np.arange(256 * 256, dtype=np.float32).reshape(256, 256)
        for chunk in chunks:
            write_tiff(stack.slice_path(chunk.offset[2]), image + chunk.offset[2])
        read_chunk(stack, chunks[0], np.dtype(np.float32))  # warm every code path once
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            blocks = [read_chunk(stack, chunk, np.dtype(np.float32)) for chunk in chunks]
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert all(np.array_equal(b[0], image + c.offset[2]) for b, c in zip(blocks, chunks))
        assert peak - sum(block.nbytes for block in blocks) < 64 * 1024
