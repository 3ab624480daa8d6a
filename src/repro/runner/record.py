"""Self-describing framed records: magic + length + CRC32C + payload.

A bare pickle on disk cannot tell a reader that it is damaged: a torn
tail often *still unpickles* into a wrong-but-plausible object, and a
bit flip in a float buffer unpickles into a silently different value.
The frame closes that hole -- every persisted record is::

    offset  size  field
    0       4     magic  b"RPR1"
    4       8     payload length, uint64 little-endian
    12      4     CRC32C of the payload, uint32 little-endian
    16      n     payload bytes (a pickle, for the result cache)

so a reader *detects* damage (wrong magic, short/long file, checksum
mismatch) instead of deserializing it.  CRC32C (Castagnoli) detects
every single-bit flip and every burst up to 32 bits -- the torn-write
and bit-rot shapes the chaos suite injects.  The result cache frames
pickles with it and the column store frames every block, index and
header of a store file (blocks of up to about 1 MiB), so it runs over
real data volumes.

The hardware-backed ``crc32c`` wheel is used when it is installed.
Without it, the checksum is computed with numpy arrays.  The CRC
register is linear over GF(2) in its start value and in the data, so
each byte contributes a fixed word: byte ``i`` of a 1024-byte chunk
contributes row ``1023-i`` of a ``(1024, 256)`` uint32 shift table,
built on first use (1 MiB).  The contributions are gathered and
XOR-reduced per chunk, and the chunk values are folded together with
rows of the same table.  The classic one-byte-at-a-time table loop
lives in the tests, as the oracle this must match bit for bit.

:func:`unframe_record` raises :class:`RecordError` with a machine-
readable ``reason`` tag; callers quarantine on it, they never guess.
"""

from __future__ import annotations

import functools
import struct

import numpy as np

__all__ = [
    "HEADER",
    "HEADER_SIZE",
    "MAGIC",
    "RecordError",
    "crc32c",
    "frame_record",
    "unframe_record",
]

MAGIC = b"RPR1"

#: magic, payload length, payload CRC32C; repro.store frames with it too
HEADER = struct.Struct("<4sQI")
HEADER_SIZE = HEADER.size  # 16 bytes


class RecordError(ValueError):
    """A framed record failed validation.

    ``reason`` is a stable tag (``truncated-header``, ``bad-magic``,
    ``length-mismatch``, ``crc-mismatch``) for counters and quarantine
    file naming; the message adds human detail.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


#: reflected Castagnoli polynomial, the iSCSI/ext4 metadata CRC
_POLY = 0x82F63B78

#: bytes per chunk of the array fallback, and rows of its shift table
_CHUNK = 1024

#: chunks gathered at once: the gather's temporaries (12 bytes per data
#: byte) stay under 1 MiB whatever the record size
_SLAB = 64

try:  # hardware/SIMD implementation when the wheel is available
    from crc32c import crc32c as _crc32c_native  # type: ignore[import-not-found]
except ImportError:
    _crc32c_native = None


@functools.cache
def _shift_table() -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    """The array fallback's tables, built on first use.

    Returns ``(flat, offsets, fold)``.  ``flat`` is the ``(_CHUNK, 256)``
    uint32 table, raveled: row ``k``, column ``b`` is the register left
    by feeding byte ``b`` and then ``k`` zero bytes to a zero register,
    so row 0 is the classic byte table.  ``offsets[i]`` is where the row
    of chunk position ``i`` (row ``_CHUNK-1-i``) starts in ``flat``.
    ``fold`` holds the last four rows as lists: a register advanced over
    a whole chunk is the XOR of its four bytes looked up in them.
    """
    byte_crc = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        byte_crc = np.where(
            byte_crc & 1, (byte_crc >> 1) ^ np.uint32(_POLY), byte_crc >> 1
        )
    table = np.empty((_CHUNK, 256), dtype=np.uint32)
    table[0] = byte_crc
    for k in range(1, _CHUNK):
        prev = table[k - 1]
        table[k] = (prev >> 8) ^ byte_crc[prev & 0xFF]
    offsets = np.arange(_CHUNK - 1, -1, -1, dtype=np.intp) * 256
    fold = [table[_CHUNK - 1 - j].tolist() for j in range(4)]
    flat = table.ravel()
    flat.flags.writeable = False
    return flat, offsets, fold


def _crc32c_arrays(data: bytes, crc: int) -> int:
    """The numpy fallback of :func:`crc32c` (see the module docstring)."""
    flat, offsets, (fold0, fold1, fold2, fold3) = _shift_table()
    n = len(data)
    register = crc ^ 0xFFFFFFFF
    # XOR the start register into the first (up to) four data bytes:
    # the run then starts from a zero register, so zero bytes in front
    # of it change nothing and it can be padded to whole chunks.  Data
    # shorter than the register only shifts the register's other bytes.
    head = min(n, 4)
    first = int.from_bytes(data[:head], "little") ^ (register & ((1 << 8 * head) - 1))
    padded = b"".join(
        (bytes(-n % _CHUNK), first.to_bytes(head, "little"), memoryview(data)[head:])
    )
    chunks = np.frombuffer(padded, dtype=np.uint8).reshape(-1, _CHUNK)
    state = 0
    for start in range(0, len(chunks), _SLAB):
        words = flat[offsets + chunks[start:start + _SLAB]]
        for value in np.bitwise_xor.reduce(words, axis=1).tolist():
            state = (
                fold0[state & 0xFF] ^ fold1[(state >> 8) & 0xFF]
                ^ fold2[(state >> 16) & 0xFF] ^ fold3[state >> 24] ^ value
            )
    return state ^ (register >> 8 * n) ^ 0xFFFFFFFF


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC32C (Castagnoli) of ``data``, continuing from ``crc``."""
    if _crc32c_native is not None:
        return _crc32c_native(data, crc)
    return _crc32c_arrays(data, crc)


def frame_record(payload: bytes) -> bytes:
    """Wrap ``payload`` in the self-describing header."""
    return HEADER.pack(MAGIC, len(payload), crc32c(payload)) + payload


def unframe_record(data: bytes) -> bytes:
    """Validate a framed record and return its payload.

    Raises :class:`RecordError` on any damage; never returns bytes the
    checksum did not vouch for.
    """
    if len(data) < HEADER_SIZE:
        raise RecordError(
            "truncated-header", f"{len(data)} byte(s) < header size {HEADER_SIZE}"
        )
    magic, length, crc = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise RecordError("bad-magic", f"got {magic!r}, want {MAGIC!r}")
    payload = data[HEADER_SIZE:]
    if len(payload) != length:
        raise RecordError(
            "length-mismatch", f"header says {length} byte(s), file has {len(payload)}"
        )
    actual = crc32c(payload)
    if actual != crc:
        raise RecordError("crc-mismatch", f"header {crc:#010x}, payload {actual:#010x}")
    return payload
