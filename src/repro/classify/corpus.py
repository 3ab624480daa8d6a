"""Synthetic labelled file corpus with a generative user-value model.

The paper trains its classifier on "data collected from a large pool of
previously scanned users files" with expert labels for system data and
user-preference labels for personal data (§4.4).  We have no such pool,
so we substitute a generative model whose structure follows the studies
the paper cites:

* file-kind mix follows mobile storage composition (media > half of all
  bytes -- Ji et al., Yen et al.);
* each user file carries a latent *value* in [0, 1] drawn from a
  kind-dependent distribution, shifted by provenance signals (favorites
  and known faces raise value; screenshots, shared-in media, duplicates,
  and long idle times lower it);
* observable attributes are emitted *noisily* from the latent value, so
  no classifier can be perfect -- which lets us check the paper's cited
  79% accuracy operating point [Khan et al.] rather than trivially
  exceeding it;
* ground-truth labels: ``critical`` (belongs on SYS) and
  ``user_would_delete`` (the auto-delete target).

The draw order is the contract: a seed names one corpus, and every
trained placement classifier and auto-delete ranker (each bit-exact
``SOSDevice`` trains both at bring-up) depends on it.  Per file, in
order: the kind (one ``random()``, mapped through the CDF
``Generator.choice`` builds from ``_KIND_WEIGHTS``), the log-normal
size, then either the system file's four draws or
:func:`_sample_user_file`'s draws followed by the two label-noise
draws.  Scalars are clamped with ``min``/``max`` and per-kind constants
come from tables built at import, so the loop makes no numpy call per
file beyond the draws themselves.  The per-file loop this replaced
(``rng.choice`` with ``p=``, ``np.clip``) is the test oracle in
``tests/classify/classify_oracles.py``, pinned field by field.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.host.files import FileAttributes, FileKind, FileRecord, SYSTEM_KINDS

from .features import feature_matrix

__all__ = [
    "LabelledFile",
    "CorpusConfig",
    "TRAIN_FRACTION",
    "generate_corpus",
    "split_corpus",
    "labelled_matrix",
    "training_split",
    "binary_metrics",
]

#: Share of a corpus a model trains on; the rest is its held-out test set.
TRAIN_FRACTION = 0.7

#: Latent value above which a user file is ground-truth critical.
CRITICAL_VALUE_THRESHOLD = 0.65

#: Latent value below which the user would delete the file.
DELETE_VALUE_THRESHOLD = 0.30

#: Probability a ground-truth label is flipped (annotator/user
#: inconsistency; keeps the achievable ceiling below 100%).
LABEL_NOISE = 0.08


@dataclass(frozen=True, slots=True)
class LabelledFile:
    """One corpus entry: a file plus its ground-truth labels."""

    record: FileRecord
    critical: bool
    user_would_delete: bool
    latent_value: float


@dataclass(frozen=True, slots=True)
class CorpusConfig:
    """Knobs for corpus generation.

    Attributes
    ----------
    n_files:
        Corpus size.
    now_years:
        Observation time (files are created in ``[0, now_years]``).
    """

    n_files: int = 5000
    now_years: float = 2.0


#: File-count mix for personal devices.  Media dominates counts and bytes
#: (§4.2 "media files comprise over half of mobile storage data").
_KIND_WEIGHTS: dict[FileKind, float] = {
    FileKind.OS_SYSTEM: 0.06,
    FileKind.APP_EXECUTABLE: 0.07,
    FileKind.APP_METADATA: 0.12,
    FileKind.DOCUMENT: 0.08,
    FileKind.PHOTO: 0.34,
    FileKind.VIDEO: 0.10,
    FileKind.AUDIO: 0.06,
    FileKind.DOWNLOAD: 0.05,
    FileKind.MESSAGE_MEDIA: 0.12,
}

#: Mean latent value by kind (system kinds are handled separately).
_KIND_VALUE_MEAN: dict[FileKind, float] = {
    FileKind.DOCUMENT: 0.62,
    FileKind.PHOTO: 0.45,
    FileKind.VIDEO: 0.42,
    FileKind.AUDIO: 0.38,
    FileKind.DOWNLOAD: 0.25,
    FileKind.MESSAGE_MEDIA: 0.30,
}

#: Typical file sizes (log-normal mean bytes) by kind.
_KIND_SIZE_MEAN: dict[FileKind, float] = {
    FileKind.OS_SYSTEM: 2e6,
    FileKind.APP_EXECUTABLE: 3e7,
    FileKind.APP_METADATA: 5e5,
    FileKind.DOCUMENT: 3e5,
    FileKind.PHOTO: 3e6,
    FileKind.VIDEO: 8e7,
    FileKind.AUDIO: 6e6,
    FileKind.DOWNLOAD: 1e7,
    FileKind.MESSAGE_MEDIA: 1.5e6,
}


#: kinds in draw order
_KINDS: tuple[FileKind, ...] = tuple(_KIND_WEIGHTS)


def _kind_cdf() -> list[float]:
    """The CDF ``rng.choice(len(_KINDS), p=...)`` searches, built the
    same way (``p.cumsum()``, then ``/= cdf[-1]``), so a
    ``bisect_right`` of one ``rng.random()`` draws the same kind."""
    weights = np.array([_KIND_WEIGHTS[k] for k in _KINDS])
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


_KIND_CDF = _kind_cdf()

#: per-kind log of the mean size (the log-normal's ``mean``), as
#: ``np.log`` computes it
_KIND_LOG_SIZE_MEAN: dict[FileKind, float] = {
    kind: float(np.log(size)) for kind, size in _KIND_SIZE_MEAN.items()
}


def _sample_user_file(
    rng: np.random.Generator, kind: FileKind, config: CorpusConfig
) -> tuple[FileAttributes, float]:
    """Sample (attributes, latent_value) for a non-system file."""
    value = min(max(rng.normal(_KIND_VALUE_MEAN[kind], 0.22), 0.0), 1.0)

    favorite = rng.random() < 0.25 * value
    known_faces = kind in (FileKind.PHOTO, FileKind.VIDEO) and rng.random() < (
        0.15 + 0.55 * value
    )
    screenshot = kind is FileKind.PHOTO and rng.random() < (0.35 * (1.0 - value))
    shared = kind is FileKind.MESSAGE_MEDIA or rng.random() < 0.25 * (1.0 - value)
    duplicates = int(rng.poisson(2.0 * (1.0 - value)))
    # valued files are accessed more and more recently
    created = rng.uniform(0.0, config.now_years)
    age = config.now_years - created
    idle = min(max(rng.exponential(0.1 + age * (1.0 - value)), 0.0), age)
    access_count = int(rng.poisson(1.0 + 25.0 * value * (age + 0.1)))
    modify_count = int(rng.poisson(0.5 if kind is not FileKind.DOCUMENT else 3.0 * value))
    sensitivity = min(max(rng.beta(1.2, 8.0) + 0.35 * value * rng.random(), 0.0), 1.0)
    # favorites/faces feed back into value: explicit signals mean more
    value = min(max(value + 0.15 * favorite + 0.12 * known_faces
                    - 0.10 * screenshot - 0.05 * min(duplicates, 3), 0.0), 1.0)
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
        kind = _KINDS[bisect_right(_KIND_CDF, rng.random())]
        size = int(rng.lognormal(_KIND_LOG_SIZE_MEAN[kind], 0.8))
        if kind in SYSTEM_KINDS:
            created = rng.uniform(0.0, config.now_years)
            attrs = FileAttributes(
                created_years=created,
                last_access_years=config.now_years - rng.exponential(0.02),
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


def split_corpus(
    corpus: list[LabelledFile], seed: int
) -> tuple[list[LabelledFile], list[LabelledFile]]:
    """Shuffle ``corpus`` under ``seed``; return its train and held-out
    test files, :data:`TRAIN_FRACTION` of them for training."""
    order = np.random.default_rng(seed).permutation(len(corpus))
    split = int(len(corpus) * TRAIN_FRACTION)
    return [corpus[i] for i in order[:split]], [corpus[i] for i in order[split:]]


def labelled_matrix(
    files: list[LabelledFile], now_years: float, label: str
) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix of ``files`` and their 0/1 ``label`` column
    (``"critical"`` or ``"user_would_delete"``)."""
    X = feature_matrix([f.record for f in files], now_years)
    return X, np.array([int(getattr(f, label)) for f in files])


def training_split(
    corpus: list[LabelledFile], now_years: float, seed: int, label: str
) -> tuple[np.ndarray, np.ndarray, list[LabelledFile]]:
    """:func:`split_corpus` under ``seed``: the training files'
    :func:`labelled_matrix` and the held-out test files."""
    train, test = split_corpus(corpus, seed)
    X, y = labelled_matrix(train, now_years, label)
    return X, y, test


def binary_metrics(pred: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Accuracy, precision and recall of 0/1 predictions against 0/1
    labels; precision (recall) is 1.0 when no prediction (label) is 1."""
    accuracy = float(np.mean(pred == y))
    tp = int(np.sum((pred == 1) & (y == 1)))
    fp = int(np.sum((pred == 1) & (y == 0)))
    fn = int(np.sum((pred == 0) & (y == 1)))
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    return accuracy, precision, recall
