"""The reference CRC32C that :func:`repro.runner.record.crc32c` is pinned to.

The classic reflected-table implementation: one 256-entry table of the
Castagnoli polynomial and one table lookup per data byte.  It was the
production fallback before the array form replaced it, and it stays
here, unchanged, as the semantic reference.

Tests import this module as ``from crc_oracle import crc32c``.
"""

from __future__ import annotations

__all__ = ["crc32c"]


def _make_table() -> list[int]:
    # reflected Castagnoli polynomial, the iSCSI/ext4 metadata CRC
    poly = 0x82F63B78
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ poly if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE = _make_table()


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC32C (Castagnoli) of ``data``, continuing from ``crc``."""
    crc ^= 0xFFFFFFFF
    table = _TABLE
    for byte in data:
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF
