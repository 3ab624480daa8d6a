"""Feature extraction for file classification.

Turns a :class:`~repro.host.files.FileRecord` into a fixed-length numeric
vector covering the attribute families §4.4 names: file type, recency and
access history, provenance (shared / screenshot / duplicates), explicit
user signals (favorites), content markers (sensitivity, known faces), and
size.  The same vector feeds both learners so they are comparable.
"""

from __future__ import annotations

import math

import numpy as np

from repro.host.files import FileKind, FileRecord

__all__ = ["FEATURE_NAMES", "extract_features", "feature_matrix"]

_KIND_ORDER = list(FileKind)

_BASE_NAMES = [
    "age_years",
    "idle_years",
    "log_access_count",
    "log_modify_count",
    "shared_from_other",
    "user_favorite",
    "has_known_faces",
    "is_screenshot",
    "log_duplicate_count",
    "cloud_backed",
    "sensitivity_score",
    "log_size",
]

FEATURE_NAMES: list[str] = _BASE_NAMES + [f"kind_{kind.value}" for kind in _KIND_ORDER]

#: matrix column of each kind's one-hot feature
_KIND_COLUMN = {kind: len(_BASE_NAMES) + i for i, kind in enumerate(_KIND_ORDER)}


def extract_features(record: FileRecord, now_years: float) -> np.ndarray:
    """Feature vector for one file at simulation time ``now_years``
    (the one-row case of :func:`feature_matrix`)."""
    return feature_matrix([record], now_years)[0]


def feature_matrix(records: list[FileRecord], now_years: float) -> np.ndarray:
    """Stacked feature matrix, one row per record.

    Built a column at a time: each of the twelve numeric features is one
    list of the same scalar expressions the per-record vector used, and
    the kind one-hot is one scatter, so the matrix is bitwise the stack
    of per-record vectors (``tests/classify/classify_oracles.py``).
    """
    n = len(records)
    out = np.zeros((n, len(FEATURE_NAMES)), dtype=np.float64)
    if not n:
        return out
    attrs = [r.attributes for r in records]
    out[:, : len(_BASE_NAMES)] = np.array(
        [
            [r.age_years(now_years) for r in records],
            [r.idle_years(now_years) for r in records],
            [math.log1p(a.access_count) for a in attrs],
            [math.log1p(a.modify_count) for a in attrs],
            [float(a.shared_from_other) for a in attrs],
            [float(a.user_favorite) for a in attrs],
            [float(a.has_known_faces) for a in attrs],
            [float(a.is_screenshot) for a in attrs],
            [math.log1p(a.duplicate_count) for a in attrs],
            [float(a.cloud_backed) for a in attrs],
            [a.sensitivity_score for a in attrs],
            [math.log1p(r.size_bytes) for r in records],
        ],
        dtype=np.float64,
    ).T
    kind_cols = [_KIND_COLUMN[r.kind] for r in records]
    out[np.arange(n), kind_cols] = 1.0
    return out
