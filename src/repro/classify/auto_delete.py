"""Auto-delete predictor: which files would the user delete?

§4.3/§4.5: "SOS relies on auto-delete data classifiers, which can predict
user file deletion decisions with high accuracy (e.g., 79%)" [Khan et
al.].  When PLC wear forces capacity trimming, SOS deletes (or recommends
deleting) the files the user is most likely to discard anyway, freeing
~3% of capacity before resuming normal degradation.

The predictor is a second logistic model over the same feature space,
trained against the corpus's ``user_would_delete`` label, exposing a
*ranking* so the trim policy can free exactly the space it needs starting
from the most-expendable files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.host.files import FileRecord

from .corpus import LabelledFile, split_corpus
from .features import extract_features, feature_matrix
from .logistic import LogisticRegression

__all__ = ["AutoDeletePredictor", "AutoDeleteMetrics", "train_auto_delete"]


@dataclass(frozen=True, slots=True)
class AutoDeleteMetrics:
    """Held-out evaluation of the auto-delete predictor."""

    accuracy: float
    precision: float
    recall: float


class AutoDeletePredictor:
    """Ranks files by predicted deletability."""

    def __init__(self, model: LogisticRegression) -> None:
        self.model = model

    def p_delete(self, record: FileRecord, now_years: float) -> float:
        """Model probability the user would delete this file."""
        features = extract_features(record, now_years).reshape(1, -1)
        return float(self.model.predict_proba(features)[0])

    def rank_for_deletion(
        self, records: list[FileRecord], now_years: float
    ) -> list[tuple[FileRecord, float]]:
        """Files sorted most-deletable first, excluding system files."""
        candidates = [r for r in records if not r.is_system]
        if not candidates:
            return []
        X = feature_matrix(candidates, now_years)
        probs = self.model.predict_proba(X)
        ranked = sorted(zip(candidates, probs), key=lambda item: -item[1])
        return [(r, float(p)) for r, p in ranked]

    def evaluate(self, test_set: list[LabelledFile], now_years: float) -> AutoDeleteMetrics:
        """Accuracy/precision/recall against ``user_would_delete`` labels."""
        if not test_set:
            raise ValueError("empty test set")
        X = feature_matrix([f.record for f in test_set], now_years)
        y = np.array([int(f.user_would_delete) for f in test_set])
        pred = self.model.predict(X)
        accuracy = float(np.mean(pred == y))
        tp = int(np.sum((pred == 1) & (y == 1)))
        fp = int(np.sum((pred == 1) & (y == 0)))
        fn = int(np.sum((pred == 0) & (y == 1)))
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 1.0
        return AutoDeleteMetrics(accuracy=accuracy, precision=precision, recall=recall)


def train_auto_delete(
    corpus: list[LabelledFile],
    now_years: float,
    seed: int = 0,
) -> tuple[AutoDeletePredictor, AutoDeleteMetrics]:
    """Train the deletion predictor and evaluate on the held-out split
    (:func:`~repro.classify.corpus.split_corpus` under ``seed``)."""
    train, test = split_corpus(corpus, seed)
    X = feature_matrix([f.record for f in train], now_years)
    y = np.array([int(f.user_would_delete) for f in train])
    model = LogisticRegression().fit(X, y)
    predictor = AutoDeletePredictor(model)
    return predictor, predictor.evaluate(test, now_years)
