"""A from-scratch baseline TIFF reader/writer (grayscale, strip-based).

The paper's first use case loads series of grayscale TIFF images (8-, 16-
and 32-bit CT slices).  No imaging library is assumed here: this module
implements the subset of TIFF 6.0 the use case needs — single-sample
grayscale, uncompressed strips, little- or big-endian, unsigned-integer or
IEEE-float samples.

Crucially it shares the property the paper's argument rests on: *the whole
image must be read and decoded even if only a few pixels are needed*
(§IV-A) — the reader fills full 2-D planes only, the caller's if given: one
``os.preadv`` brings the header, the pixels (straight into the plane) and
the IFD behind them, the layout the writer produces.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

# TIFF tag ids (TIFF 6.0 spec).
TAG_IMAGE_WIDTH = 256
TAG_IMAGE_LENGTH = 257
TAG_BITS_PER_SAMPLE = 258
TAG_COMPRESSION = 259
TAG_PHOTOMETRIC = 262
TAG_STRIP_OFFSETS = 273
TAG_SAMPLES_PER_PIXEL = 277
TAG_ROWS_PER_STRIP = 278
TAG_STRIP_BYTE_COUNTS = 279
TAG_SAMPLE_FORMAT = 339

# TIFF field types.
TYPE_SHORT = 3  # uint16
TYPE_LONG = 4  # uint32

COMPRESSION_NONE = 1
PHOTOMETRIC_BLACK_IS_ZERO = 1
SAMPLE_FORMAT_UINT = 1
SAMPLE_FORMAT_FLOAT = 3

_TYPE_CODE = {TYPE_SHORT: "H", TYPE_LONG: "I"}
_HEADER, _TAIL = 8, 4096  # the header; what one read takes past the pixels

#: dtype -> (bits, sample_format)
_SUPPORTED_DTYPES = {
    np.dtype(np.uint8): (8, SAMPLE_FORMAT_UINT),
    np.dtype(np.uint16): (16, SAMPLE_FORMAT_UINT),
    np.dtype(np.uint32): (32, SAMPLE_FORMAT_UINT),
    np.dtype(np.float32): (32, SAMPLE_FORMAT_FLOAT),
}
_DTYPE_OF = {sample: dtype for dtype, sample in _SUPPORTED_DTYPES.items()}


class TiffError(ValueError):
    """Malformed file or unsupported TIFF feature."""


@dataclass(frozen=True)
class TiffInfo:
    """Parsed metadata of one grayscale TIFF image."""

    width: int
    height: int
    dtype: np.dtype
    strip_offsets: tuple[int, ...]
    strip_byte_counts: tuple[int, ...]
    rows_per_strip: int
    byte_order: str  # "<" or ">"

    @property
    def nbytes(self) -> int:
        return self.width * self.height * self.dtype.itemsize


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


def write_tiff(path_or_file, image: np.ndarray, rows_per_strip: int = 64) -> int:
    """Write a grayscale image as an uncompressed little-endian TIFF.

    ``image`` is ``(height, width)`` with one of the supported dtypes.
    Returns the number of bytes written.
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise TiffError(f"expected a 2-D grayscale image, got shape {image.shape}")
    if image.dtype not in _SUPPORTED_DTYPES:
        raise TiffError(f"unsupported dtype {image.dtype}")
    if rows_per_strip < 1:
        raise TiffError(f"rows_per_strip must be >= 1, got {rows_per_strip}")

    if hasattr(path_or_file, "write"):
        return _write_tiff_stream(path_or_file, image, rows_per_strip)
    with open(path_or_file, "wb") as handle:
        return _write_tiff_stream(handle, image, rows_per_strip)


def _write_tiff_stream(out: BinaryIO, image: np.ndarray, rows_per_strip: int) -> int:
    height, width = image.shape
    bits, sample_format = _SUPPORTED_DTYPES[image.dtype]
    row_bytes = width * image.dtype.itemsize
    first_rows = range(0, height, rows_per_strip)
    n_strips = len(first_rows)
    offsets = [_HEADER + row * row_bytes for row in first_rows]
    counts = [min(rows_per_strip, height - row) * row_bytes for row in first_rows]

    # Layout: header (8) | pixel strips | [offset arrays] | IFD.  One strip's
    # offset and count fit in the IFD entries themselves.
    arrays = _HEADER + height * row_bytes
    if n_strips > 1:
        extra = struct.pack(f"<{2 * n_strips}I", *offsets, *counts)
        strips = (arrays, arrays + 4 * n_strips)
    else:
        extra, strips = b"", (offsets[0], counts[0])
    entries = [
        (TAG_IMAGE_WIDTH, TYPE_LONG, 1, width),
        (TAG_IMAGE_LENGTH, TYPE_LONG, 1, height),
        (TAG_BITS_PER_SAMPLE, TYPE_SHORT, 1, bits),
        (TAG_COMPRESSION, TYPE_SHORT, 1, COMPRESSION_NONE),
        (TAG_PHOTOMETRIC, TYPE_SHORT, 1, PHOTOMETRIC_BLACK_IS_ZERO),
        (TAG_STRIP_OFFSETS, TYPE_LONG, n_strips, strips[0]),
        (TAG_SAMPLES_PER_PIXEL, TYPE_SHORT, 1, 1),
        (TAG_ROWS_PER_STRIP, TYPE_LONG, 1, rows_per_strip),
        (TAG_STRIP_BYTE_COUNTS, TYPE_LONG, n_strips, strips[1]),
        (TAG_SAMPLE_FORMAT, TYPE_SHORT, 1, sample_format),
    ]
    ifd = b"".join(struct.pack("<HHII", *entry) for entry in entries)
    ifd = struct.pack("<H", len(entries)) + ifd + struct.pack("<I", 0)  # no next IFD
    header = struct.pack("<2sHI", b"II", 42, arrays + len(extra))
    pixels = np.ascontiguousarray(image, dtype=image.dtype.newbyteorder("<"))
    return sum(out.write(part) for part in (header, pixels.tobytes(), extra, ifd))


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


class _Source:
    """A TIFF's bytes by range: from pieces already read, as ``(file offset,
    memoryview)`` pairs, else by ``os.pread`` from ``fd`` — never past the
    end, so a corrupt count cannot ask for gigabytes."""

    def __init__(self, fd: int | None = None, data=b"") -> None:
        self.fd = fd
        self.pieces = [(0, memoryview(data).cast("B"))]
        self.size = len(data) if fd is None else None
        self.placed = 0  # leading bytes of the plane already read from byte 8

    def first_read(self, plane: memoryview) -> None:
        """One ``preadv``: the header, the pixels into ``plane`` as if they
        start at byte 8 (the writer's layout), and a tail."""
        buffers = [bytearray(_HEADER), plane, bytearray(_TAIL)]
        got = os.preadv(self.fd, buffers, 0)
        if got < _HEADER + len(plane) + _TAIL:
            self.size = got  # a short read tells the file's size
        for start, buf in zip((0, _HEADER, _HEADER + len(plane)), buffers):
            self.pieces.append((start, memoryview(buf)[: max(0, got - start)]))
        self.placed = min(len(plane), max(0, got - _HEADER))

    def fetch(self, offset: int, count: int):
        """``count`` bytes at ``offset``, fewer only where the file ends."""
        for start, piece in self.pieces:  # one that holds it, or ends the file
            end = start + len(piece)
            if start <= offset and (offset + count <= end or end == self.size):
                return piece[offset - start : offset - start + count]
        if self.size is None:
            self.size = os.fstat(self.fd).st_size
        return os.pread(self.fd, max(0, min(count, self.size - offset)), offset)

    def readinto(self, view: memoryview, offset: int) -> int:
        if self.fd is not None:
            return os.preadv(self.fd, [view], offset)
        chunk = self.fetch(offset, len(view))
        view[: len(chunk)] = chunk
        return len(chunk)


def _parse(fetch) -> TiffInfo:
    """The header + first IFD, from ``fetch(offset, count)``, which returns
    fewer bytes than asked only where the file ends."""
    head = fetch(0, _HEADER)
    if len(head) < _HEADER:
        raise TiffError("file too small for a TIFF header")
    bo = {b"II": "<", b"MM": ">"}.get(bytes(head[:2]))
    if bo is None:
        raise TiffError(f"bad byte-order mark {bytes(head[:2])!r}")
    magic, ifd_offset = struct.unpack_from(bo + "HI", head, 2)
    if magic != 42:
        raise TiffError(f"bad TIFF magic {magic}")

    n_bytes = fetch(ifd_offset, 2)
    if len(n_bytes) < 2:
        raise TiffError("IFD offset out of range")
    (n_entries,) = struct.unpack(bo + "H", n_bytes)
    table = fetch(ifd_offset + 2, 12 * n_entries)
    fields: dict[int, tuple[int, ...]] = {}
    entries = table[: len(table) // 12 * 12]  # whole entries; a cut one fails below
    for tag, ftype, count, value in struct.iter_unpack(bo + "HHI4s", entries):
        if ftype not in _TYPE_CODE:
            continue
        layout = f"{bo}{count}{_TYPE_CODE[ftype]}"
        total = struct.calcsize(layout)
        if total > 4:
            value = fetch(struct.unpack(bo + "I", value)[0], total)
            if len(value) < total:
                raise TiffError(f"tag {tag}: out-of-line value beyond EOF")
        fields[tag] = struct.unpack_from(layout, value)
    if len(table) < 12 * n_entries:
        raise TiffError("truncated IFD entry")

    def one(tag: int, default: int | None = None) -> int:
        if tag in fields:
            return int(fields[tag][0])
        if default is None:
            raise TiffError(f"required tag {tag} missing")
        return default

    width = one(TAG_IMAGE_WIDTH)
    height = one(TAG_IMAGE_LENGTH)
    bits = one(TAG_BITS_PER_SAMPLE, 1)
    compression = one(TAG_COMPRESSION, COMPRESSION_NONE)
    samples = one(TAG_SAMPLES_PER_PIXEL, 1)
    sample_format = one(TAG_SAMPLE_FORMAT, SAMPLE_FORMAT_UINT)
    if compression != COMPRESSION_NONE:
        raise TiffError(f"unsupported compression {compression}")
    if samples != 1:
        raise TiffError(f"only single-sample grayscale supported, got {samples}")
    if TAG_STRIP_OFFSETS not in fields:
        raise TiffError("strip offsets missing")
    strip_offsets = fields[TAG_STRIP_OFFSETS]
    if TAG_STRIP_BYTE_COUNTS in fields:
        strip_byte_counts = fields[TAG_STRIP_BYTE_COUNTS]
    elif len(strip_offsets) != 1:
        raise TiffError("StripByteCounts missing with multiple strips")
    else:
        strip_byte_counts = (width * height * (bits // 8),)
    rows_per_strip = one(TAG_ROWS_PER_STRIP, height)
    dtype = _DTYPE_OF.get((bits, sample_format))
    if dtype is None:
        raise TiffError(f"unsupported sample: {bits}-bit, format {sample_format}")
    return TiffInfo(width, height, dtype, strip_offsets, strip_byte_counts, rows_per_strip, bo)


def read_tiff_info(data) -> TiffInfo:
    """Parse the header + first IFD of a TIFF: ``data`` is the file's bytes,
    or its path (then only the header, the IFD and its arrays are read)."""
    if isinstance(data, (bytes, bytearray, memoryview)):
        return _parse(_Source(data=data).fetch)
    source = _Source(os.open(data, os.O_RDONLY))
    try:
        return _parse(source.fetch)
    finally:
        os.close(source.fd)


def read_tiff(path_or_file, out: np.ndarray | None = None) -> np.ndarray:
    """Read a grayscale TIFF fully into a ``(height, width)`` array.

    Whole-image decode only — exactly the constraint DDR exploits: partial
    reads are impossible, so the producer decodes everything and DDR moves
    the needed pixels to where they belong.  ``out``, a C-contiguous plane
    of the image's shape and dtype, receives the pixels in place (its
    contents are unspecified if this raises); on the writer's layout a path
    then costs ``os.open``, one ``os.preadv`` and ``os.close``.
    """
    if out is not None and not (isinstance(out, np.ndarray) and out.flags.carray):
        raise TypeError("out must be a writable C-contiguous array")
    if hasattr(path_or_file, "read"):
        source = _Source(data=path_or_file.read())
    else:
        source = _Source(os.open(path_or_file, os.O_RDONLY))
    try:
        if out is not None and source.fd is not None:
            source.first_read(memoryview(out).cast("B"))
        info = _parse(source.fetch)
        shape = (info.height, info.width)
        if out is None:
            out = np.empty(shape, dtype=info.dtype)
        elif out.shape != shape or out.dtype != info.dtype:
            raise TiffError(f"out is {out.dtype} {out.shape}, the image {info.dtype} {shape}")
        plane = memoryview(out).cast("B")
        cursor = 0
        for offset, count in zip(info.strip_offsets, info.strip_byte_counts):
            if offset == _HEADER + cursor and cursor + count <= source.placed:
                pass  # the first read already put this strip in its place
            elif cursor + count > len(plane):
                if len(source.fetch(offset, count)) < count:
                    raise TiffError("strip extends beyond end of file")
                raise TiffError("strips larger than declared image size")
            elif source.readinto(plane[cursor : cursor + count], offset) < count:
                raise TiffError("strip extends beyond end of file")
            cursor += count
    finally:
        if source.fd is not None:
            os.close(source.fd)
    if cursor != len(plane):
        raise TiffError(f"strips cover {cursor // out.itemsize} samples, image needs {out.size}")
    if not info.dtype.newbyteorder(info.byte_order).isnative:
        out.byteswap(inplace=True)
    return out
