"""The on-disk format of the columnar result store, pinned for good.

A persisted format is forever: once a store file exists in an archive,
every future build of this repo must read it or refuse it loudly.  This
module is therefore the *whole* layout in one place, and the golden
fixture under ``tests/store/data`` asserts that a seed-built file
reproduces these bytes exactly -- any change here must bump
:data:`FORMAT` explicitly, never silently.

Layout (``repro.store/v1``)::

    file   := header block* [index footer]
    header := frame(b"H" ++ canonical-JSON header dict)
    block  := frame(b"B" ++ codec(block body))
    index  := frame(b"I" ++ zlib(canonical-JSON index dict))
    footer := b"RCSF" ++ uint64 index-frame offset ++ CRC32C of the
              first 12 footer bytes          (16 bytes, little-endian)

where ``frame`` is exactly the magic+length+CRC32C record framing of
:mod:`repro.runner.record` -- a reader *detects* torn tails, bit rot,
and truncation instead of deserializing them -- and a block body is::

    body := uint32 TOC length ++ canonical-JSON TOC ++ column bytes

The TOC lists every (key, column) the block carries with its dtype,
shape, and ``(offset, nbytes)`` into the column-bytes section, so the
footer index is *redundant by construction*: a file whose index or
footer was lost to a crash rebuilds it by scanning block frames.

Column bytes are C-contiguous little-endian array buffers; dtypes are
canonicalized to little-endian on write (values bit-preserved via
byteswap+view, so NaN payloads and ``-0.0`` survive untouched) and only
plain numeric kinds are accepted -- an object array has no stable byte
form and must stay on the pickle path.

Blocks are compressed with the store codec (stdlib only: ``none``,
``zlib``, ``lzma``); the index is always zlib -- it must be readable
before the header codec is known to be trustworthy.
"""

from __future__ import annotations

import json
import lzma
import math
import struct
import zlib
from typing import BinaryIO

import numpy as np

from repro.runner.record import HEADER, HEADER_SIZE, MAGIC, crc32c, frame_record

__all__ = [
    "CODECS",
    "FOOTER_MAGIC",
    "FOOTER_SIZE",
    "FORMAT",
    "StoreError",
    "TAG_BLOCK",
    "TAG_HEADER",
    "TAG_INDEX",
    "canon_json",
    "compress",
    "decompress",
    "frame",
    "pack_array",
    "pack_footer",
    "read_frame",
    "unpack_array",
    "unpack_footer",
]

#: Format tag in the header frame.  Bump EXPLICITLY (v1 -> v2) for any
#: byte-level layout change; readers refuse unknown tags.
FORMAT = "repro.store/v1"

#: Record type tags -- the first payload byte of every frame.
TAG_HEADER = b"H"
TAG_BLOCK = b"B"
TAG_INDEX = b"I"

FOOTER_MAGIC = b"RCSF"
_FOOTER = struct.Struct("<4sQI")  # magic, index frame offset, CRC32C
FOOTER_SIZE = _FOOTER.size  # 16 bytes

#: uint32 length prefix of a block body's TOC.
_TOC_LEN = struct.Struct("<I")

#: numpy dtype kinds with a stable raw-byte form.
_SUPPORTED_KINDS = frozenset("biufc")


class StoreError(ValueError):
    """A store file (or an operation on it) failed validation.

    ``reason`` is a stable machine-readable tag -- mirroring
    :class:`repro.runner.record.RecordError` -- for counters,
    quarantine naming, and tests; the message adds human detail.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


# -- canonical JSON -------------------------------------------------------------


def canon_json(obj) -> bytes:
    """One canonical encoding, so identical content is identical bytes."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


# -- codecs ---------------------------------------------------------------------

#: codec name -> (compress, decompress).  zlib level and lzma preset are
#: fixed: the golden fixture pins their output bytes.
_CODEC_FNS = {
    "none": (lambda data: data, lambda data: data),
    "zlib": (lambda data: zlib.compress(data, 6), zlib.decompress),
    "lzma": (
        lambda data: lzma.compress(data, preset=6),
        lzma.decompress,
    ),
}

CODECS = tuple(sorted(_CODEC_FNS))


def compress(codec: str, data: bytes) -> bytes:
    try:
        return _CODEC_FNS[codec][0](data)
    except KeyError:
        raise StoreError("unknown-codec", f"{codec!r} (known: {', '.join(CODECS)})")


def decompress(codec: str, data: bytes) -> bytes:
    try:
        fn = _CODEC_FNS[codec][1]
    except KeyError:
        raise StoreError("unknown-codec", f"{codec!r} (known: {', '.join(CODECS)})")
    try:
        return fn(data)
    except Exception as err:  # zlib.error / lzma.LZMAError
        # the frame CRC passed, so this is a writer bug or an exotic
        # corruption the CRC missed; either way, detect, never guess
        raise StoreError("decompress-failed", repr(err))


# -- framing --------------------------------------------------------------------


def frame(tag: bytes, payload: bytes) -> bytes:
    """One tagged store record in the shared magic+length+CRC32C framing."""
    return frame_record(tag + payload)


def read_frame(
    fh: BinaryIO, offset: int, file_size: int
) -> tuple[bytes, bytes, int]:
    """Read and validate the frame at ``offset``.

    Returns ``(tag, payload, end_offset)``.  Raises :class:`StoreError`
    on any damage -- short header, bad magic, a length field pointing
    past EOF, checksum mismatch, or an empty (tagless) payload.  The
    CRC is checked *before* the payload is interpreted, so damaged
    bytes never reach a decompressor or JSON parser.
    """
    if offset + HEADER_SIZE > file_size:
        raise StoreError(
            "truncated-header",
            f"frame at {offset} needs {HEADER_SIZE} header byte(s), "
            f"file ends at {file_size}",
        )
    fh.seek(offset)
    header = fh.read(HEADER_SIZE)
    if len(header) != HEADER_SIZE:
        raise StoreError("truncated-header", f"short read at {offset}")
    magic, length, crc = HEADER.unpack(header)
    if magic != MAGIC:
        raise StoreError("bad-magic", f"got {magic!r} at {offset}, want {MAGIC!r}")
    end = offset + HEADER_SIZE + length
    if end > file_size:
        raise StoreError(
            "length-mismatch",
            f"frame at {offset} claims {length} payload byte(s), "
            f"file ends at {file_size}",
        )
    payload = fh.read(length)
    if len(payload) != length:
        raise StoreError("length-mismatch", f"short payload read at {offset}")
    actual = crc32c(payload)
    if actual != crc:
        raise StoreError(
            "crc-mismatch",
            f"frame at {offset}: header {crc:#010x}, payload {actual:#010x}",
        )
    if not payload:
        raise StoreError("empty-frame", f"frame at {offset} has no tag byte")
    return payload[:1], payload[1:], end


# -- footer ---------------------------------------------------------------------


def pack_footer(index_offset: int) -> bytes:
    partial = _FOOTER.pack(FOOTER_MAGIC, index_offset, 0)[:-4]
    return partial + struct.pack("<I", crc32c(partial))


def unpack_footer(data: bytes) -> int:
    """Validate the 16 trailing footer bytes; returns the index offset."""
    if len(data) != FOOTER_SIZE:
        raise StoreError("bad-footer", f"{len(data)} byte(s), want {FOOTER_SIZE}")
    magic, index_offset, crc = _FOOTER.unpack(data)
    if magic != FOOTER_MAGIC:
        raise StoreError("bad-footer", f"magic {magic!r}, want {FOOTER_MAGIC!r}")
    if crc32c(data[:-4]) != crc:
        raise StoreError("bad-footer", "footer checksum mismatch")
    return index_offset


# -- block bodies ---------------------------------------------------------------


def pack_block_body(toc: dict, data: bytes) -> bytes:
    toc_bytes = canon_json(toc)
    return _TOC_LEN.pack(len(toc_bytes)) + toc_bytes + data


def unpack_block_body(body: bytes) -> tuple[dict, int]:
    """Parse a block body; returns ``(toc, data_start_offset)``."""
    if len(body) < _TOC_LEN.size:
        raise StoreError("bad-block", "body shorter than its TOC length prefix")
    (toc_len,) = _TOC_LEN.unpack_from(body)
    data_start = _TOC_LEN.size + toc_len
    if data_start > len(body):
        raise StoreError("bad-block", "TOC length prefix points past body end")
    try:
        toc = json.loads(body[_TOC_LEN.size:data_start])
    except ValueError as err:
        raise StoreError("bad-block", f"TOC is not valid JSON: {err}")
    if not isinstance(toc, dict) or not isinstance(toc.get("entries"), list):
        raise StoreError("bad-block", "TOC has no entries list")
    return toc, data_start


# -- array packing --------------------------------------------------------------


def pack_array(arr: np.ndarray) -> tuple[bytes, str, tuple[int, ...]]:
    """Canonical bytes of ``arr``: C order, little-endian, bit-preserved.

    Returns ``(buffer, dtype_str, shape)``.  Endianness conversion goes
    through ``byteswap().view()`` -- a pure byte reorder -- so every bit
    pattern (NaN payloads, ``-0.0``, signaling NaNs) survives exactly.
    Unsupported dtypes (object, strings, structured, datetimes) raise:
    they have no stable raw-byte form and belong on the pickle path.
    """
    if not isinstance(arr, np.ndarray):
        raise StoreError("not-an-array", f"got {type(arr).__name__}")
    if arr.dtype.kind not in _SUPPORTED_KINDS:
        raise StoreError(
            "unsupported-dtype",
            f"{arr.dtype!r} (kind {arr.dtype.kind!r}); store columns must "
            "be plain numeric/bool arrays",
        )
    contiguous = np.ascontiguousarray(arr)
    if contiguous.dtype.byteorder == ">":
        contiguous = contiguous.byteswap().view(
            contiguous.dtype.newbyteorder("<")
        )
    return (
        contiguous.tobytes(),
        contiguous.dtype.str,
        tuple(int(dim) for dim in arr.shape),
    )


def unpack_array(data: bytes, dtype: str, shape) -> np.ndarray:
    """Inverse of :func:`pack_array`; validates byte count against shape."""
    try:
        dt = np.dtype(dtype)
    except TypeError as err:
        raise StoreError("unsupported-dtype", f"{dtype!r}: {err}")
    if dt.kind not in _SUPPORTED_KINDS:
        raise StoreError("unsupported-dtype", f"{dtype!r} (kind {dt.kind!r})")
    expected = dt.itemsize * math.prod(shape)
    if len(data) != expected:
        raise StoreError(
            "bad-column",
            f"column claims dtype {dtype} shape {shape} "
            f"({expected} byte(s)) but carries {len(data)}",
        )
    return np.frombuffer(data, dtype=dt).reshape(shape).copy()
