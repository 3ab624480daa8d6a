"""Reference implementations the classify layer's batch paths are pinned to.

``repro.classify`` samples its corpus with scalar draws mapped through
tables built once, and builds feature matrices a column at a time.  The
per-file loops they replaced live here, unchanged, as the references:

* :func:`generate_corpus` -- the per-file corpus loop, drawing the kind
  with ``rng.choice(..., p=...)`` and clamping with ``np.clip``;
* :func:`extract_features` / :func:`feature_matrix` -- the per-record
  feature vector and the ``np.stack`` of those vectors.

Tests import this module as ``from classify_oracles import ...``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.classify.corpus import (
    _KIND_SIZE_MEAN,
    _KIND_VALUE_MEAN,
    _KIND_WEIGHTS,
    CRITICAL_VALUE_THRESHOLD,
    DELETE_VALUE_THRESHOLD,
    LABEL_NOISE,
    CorpusConfig,
    LabelledFile,
)
from repro.classify.features import FEATURE_NAMES
from repro.host.files import FileAttributes, FileKind, FileRecord, SYSTEM_KINDS

__all__ = ["extract_features", "feature_matrix", "generate_corpus"]


def _sample_kind(rng: np.random.Generator) -> FileKind:
    kinds = list(_KIND_WEIGHTS)
    weights = np.array([_KIND_WEIGHTS[k] for k in kinds])
    return kinds[rng.choice(len(kinds), p=weights / weights.sum())]


def _sample_user_file(
    rng: np.random.Generator, kind: FileKind, config: CorpusConfig
) -> tuple[FileAttributes, float]:
    """Sample (attributes, latent_value) for a non-system file."""
    value = float(np.clip(rng.normal(_KIND_VALUE_MEAN[kind], 0.22), 0.0, 1.0))

    favorite = rng.random() < 0.25 * value
    known_faces = kind in (FileKind.PHOTO, FileKind.VIDEO) and rng.random() < (
        0.15 + 0.55 * value
    )
    screenshot = kind is FileKind.PHOTO and rng.random() < (0.35 * (1.0 - value))
    shared = kind is FileKind.MESSAGE_MEDIA or rng.random() < 0.25 * (1.0 - value)
    duplicates = int(rng.poisson(2.0 * (1.0 - value)))
    # valued files are accessed more and more recently
    created = float(rng.uniform(0.0, config.now_years))
    age = config.now_years - created
    idle = float(np.clip(rng.exponential(0.1 + age * (1.0 - value)), 0.0, age))
    access_count = int(rng.poisson(1.0 + 25.0 * value * (age + 0.1)))
    modify_count = int(rng.poisson(0.5 if kind is not FileKind.DOCUMENT else 3.0 * value))
    sensitivity = float(np.clip(rng.beta(1.2, 8.0) + 0.35 * value * rng.random(), 0.0, 1.0))
    # favorites/faces feed back into value: explicit signals mean more
    value = float(np.clip(value + 0.15 * favorite + 0.12 * known_faces
                          - 0.10 * screenshot - 0.05 * min(duplicates, 3), 0.0, 1.0))
    attrs = FileAttributes(
        created_years=created,
        last_access_years=config.now_years - idle,
        access_count=access_count,
        modify_count=modify_count,
        shared_from_other=shared,
        user_favorite=favorite,
        has_known_faces=known_faces,
        is_screenshot=screenshot,
        duplicate_count=duplicates,
        cloud_backed=rng.random() < 0.6,
        sensitivity_score=sensitivity,
    )
    return attrs, value


def generate_corpus(
    config: CorpusConfig | None = None, seed: int = 0
) -> list[LabelledFile]:
    """Generate a labelled corpus of ``config.n_files`` files."""
    config = config or CorpusConfig()
    rng = np.random.default_rng(seed)
    corpus: list[LabelledFile] = []
    for file_id in range(1, config.n_files + 1):
        kind = _sample_kind(rng)
        size = int(rng.lognormal(np.log(_KIND_SIZE_MEAN[kind]), 0.8))
        if kind in SYSTEM_KINDS:
            created = float(rng.uniform(0.0, config.now_years))
            attrs = FileAttributes(
                created_years=created,
                last_access_years=config.now_years - float(rng.exponential(0.02)),
                access_count=int(rng.poisson(200)),
                modify_count=int(rng.poisson(5)),
                cloud_backed=False,
            )
            value = 1.0
            critical = True
            would_delete = False
        else:
            attrs, value = _sample_user_file(rng, kind, config)
            critical = value >= CRITICAL_VALUE_THRESHOLD
            would_delete = value <= DELETE_VALUE_THRESHOLD
            if rng.random() < LABEL_NOISE:
                critical = not critical
            if rng.random() < LABEL_NOISE:
                would_delete = not would_delete
        record = FileRecord(
            file_id=file_id,
            path=f"/data/{kind.value}/{file_id:06d}",
            kind=kind,
            size_bytes=size,
            attributes=attrs,
        )
        corpus.append(
            LabelledFile(
                record=record,
                critical=critical,
                user_would_delete=would_delete,
                latent_value=value,
            )
        )
    return corpus


_KIND_ORDER = list(FileKind)


def extract_features(record: FileRecord, now_years: float) -> np.ndarray:
    """Feature vector for one file at simulation time ``now_years``."""
    attrs = record.attributes
    base = [
        record.age_years(now_years),
        record.idle_years(now_years),
        math.log1p(attrs.access_count),
        math.log1p(attrs.modify_count),
        float(attrs.shared_from_other),
        float(attrs.user_favorite),
        float(attrs.has_known_faces),
        float(attrs.is_screenshot),
        math.log1p(attrs.duplicate_count),
        float(attrs.cloud_backed),
        attrs.sensitivity_score,
        math.log1p(record.size_bytes),
    ]
    kind_onehot = [1.0 if record.kind is kind else 0.0 for kind in _KIND_ORDER]
    return np.array(base + kind_onehot, dtype=np.float64)


def feature_matrix(records: list[FileRecord], now_years: float) -> np.ndarray:
    """Stacked feature matrix, one row per record."""
    if not records:
        return np.empty((0, len(FEATURE_NAMES)))
    return np.stack([extract_features(r, now_years) for r in records])
