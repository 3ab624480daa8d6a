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

from repro.host.files import FileRecord

from .corpus import LabelledFile, binary_metrics, labelled_matrix, training_split
from .features import feature_matrix
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
        X, y = labelled_matrix(test_set, now_years, "user_would_delete")
        return AutoDeleteMetrics(*binary_metrics(self.model.predict(X), y))


def train_auto_delete(
    corpus: list[LabelledFile],
    now_years: float,
    seed: int = 0,
) -> tuple[AutoDeletePredictor, AutoDeleteMetrics]:
    """Train the deletion predictor and evaluate on the held-out split
    (:func:`~repro.classify.corpus.split_corpus` under ``seed``)."""
    X, y, test = training_split(corpus, now_years, seed, "user_would_delete")
    model = LogisticRegression().fit(X, y)
    predictor = AutoDeletePredictor(model)
    return predictor, predictor.evaluate(test, now_years)
