"""repro.store: append-only block-compressed columnar result storage.

The batch-payload backend of the result cache: population-scale
observables (stacked per-device arrays) pack into one compressed,
CRC-framed, footer-indexed file instead of one pickle per point, so
archives shrink by an order of magnitude and percentile queries stream
off-disk without rehydrating sweeps.  See :mod:`repro.store.format`
for the pinned v1 layout and :mod:`repro.store.store` for the
append/recover/compact machinery.
"""

from .columns import COLUMN_SENTINEL, join_value, split_value
from .format import CODECS, FORMAT, StoreError
from .store import ColumnStore, StoreStats

__all__ = [
    "CODECS",
    "COLUMN_SENTINEL",
    "ColumnStore",
    "FORMAT",
    "StoreError",
    "StoreStats",
    "join_value",
    "split_value",
]
