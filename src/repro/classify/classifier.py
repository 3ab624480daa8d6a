"""FileClassifier: the machine-driven data classification of §4.4.

Wraps a trained model behind the decision SOS actually needs: *which
partition should this file live on, and with what confidence?*  Two rules
from the paper sit above the learned model:

* system-functionality files are SYS unconditionally ("OS files are
  easily identifiable as critical", §4.4);
* demotion to SPARE is **conservative**: a file moves to SPARE only when
  the model's P(critical) falls below ``demote_threshold`` ("erring on
  the side of caution", §4.3) -- raising the threshold trades density
  gain for safety, the A3 ablation axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.host.files import FileRecord
from repro.host.hints import Placement, PlacementHint

from .corpus import LabelledFile, split_corpus
from .features import extract_features, feature_matrix
from .logistic import LogisticRegression
from .naive_bayes import GaussianNaiveBayes

__all__ = ["FileClassifier", "ClassifierMetrics", "train_classifier"]


@dataclass(frozen=True, slots=True)
class ClassifierMetrics:
    """Held-out evaluation of a trained classifier."""

    accuracy: float
    precision_critical: float
    recall_critical: float
    #: fraction of truly-critical files the policy would demote to SPARE
    critical_demotion_rate: float
    #: fraction of all files demoted to SPARE (density-gain proxy)
    spare_fraction: float


class FileClassifier:
    """Placement decisions from a trained criticality model.

    Parameters
    ----------
    model:
        Trained binary model with ``predict_proba`` returning P(critical).
    demote_threshold:
        Demote to SPARE only when P(critical) < this.  Low values are
        conservative (few demotions); the paper wants most low-value media
        demoted while critical data stays safe.
    """

    def __init__(
        self,
        model: LogisticRegression | GaussianNaiveBayes,
        demote_threshold: float = 0.35,
    ) -> None:
        if not 0.0 < demote_threshold < 1.0:
            raise ValueError("demote_threshold must be in (0, 1)")
        self.model = model
        self.demote_threshold = demote_threshold

    def p_critical(self, record: FileRecord, now_years: float) -> float:
        """Model probability that a file is critical."""
        features = extract_features(record, now_years).reshape(1, -1)
        if isinstance(self.model, LogisticRegression):
            return float(self.model.predict_proba(features)[0])
        probs = self.model.predict_proba(features)[0]
        # classes_ sorted ascending; critical encoded as 1
        critical_idx = int(np.where(self.model.classes_ == 1)[0][0])
        return float(probs[critical_idx])

    def classify(self, record: FileRecord, now_years: float) -> PlacementHint:
        """Placement hint for one file (rule layer + learned model)."""
        if record.is_system:
            return PlacementHint(record.file_id, Placement.SYS, confidence=1.0)
        p_crit = self.p_critical(record, now_years)
        if p_crit < self.demote_threshold:
            return PlacementHint(record.file_id, Placement.SPARE, confidence=1.0 - p_crit)
        return PlacementHint(record.file_id, Placement.SYS, confidence=p_crit)

    def classify_many(
        self, records: list[FileRecord], now_years: float
    ) -> list[PlacementHint]:
        """Placement hints for a batch of files."""
        return [self.classify(r, now_years) for r in records]

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, test_set: list[LabelledFile], now_years: float) -> ClassifierMetrics:
        """Held-out metrics against ground-truth criticality labels."""
        if not test_set:
            raise ValueError("empty test set")
        X = feature_matrix([f.record for f in test_set], now_years)
        y = np.array([int(f.critical) for f in test_set])
        if isinstance(self.model, LogisticRegression):
            p = self.model.predict_proba(X)
        else:
            probs = self.model.predict_proba(X)
            critical_idx = int(np.where(self.model.classes_ == 1)[0][0])
            p = probs[:, critical_idx]
        pred = (p >= 0.5).astype(int)
        accuracy = float(np.mean(pred == y))
        tp = int(np.sum((pred == 1) & (y == 1)))
        fp = int(np.sum((pred == 1) & (y == 0)))
        fn = int(np.sum((pred == 0) & (y == 1)))
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 1.0
        demote = p < self.demote_threshold
        system = np.array([f.record.is_system for f in test_set])
        demote = demote & ~system  # rule layer protects system files
        critical_demotions = float(np.sum(demote & (y == 1)) / max(1, np.sum(y == 1)))
        return ClassifierMetrics(
            accuracy=accuracy,
            precision_critical=precision,
            recall_critical=recall,
            critical_demotion_rate=critical_demotions,
            spare_fraction=float(np.mean(demote)),
        )


def train_classifier(
    corpus: list[LabelledFile],
    now_years: float,
    kind: str = "logistic",
    demote_threshold: float = 0.35,
    seed: int = 0,
) -> tuple[FileClassifier, ClassifierMetrics]:
    """Train a classifier on a corpus and evaluate on the held-out split.

    Parameters
    ----------
    corpus:
        Labelled files (see :func:`repro.classify.corpus.generate_corpus`).
    now_years:
        Feature-extraction observation time.
    kind:
        ``"logistic"`` or ``"naive_bayes"``.
    demote_threshold:
        Conservativeness of the SPARE demotion rule.
    seed:
        Shuffling seed of the train/test split
        (:func:`~repro.classify.corpus.split_corpus`).
    """
    if kind not in ("logistic", "naive_bayes"):
        raise ValueError(f"unknown classifier kind {kind!r}")
    train, test = split_corpus(corpus, seed)
    X = feature_matrix([f.record for f in train], now_years)
    y = np.array([int(f.critical) for f in train])
    model: LogisticRegression | GaussianNaiveBayes
    if kind == "logistic":
        model = LogisticRegression().fit(X, y)
    else:
        model = GaussianNaiveBayes().fit(X, y)
    classifier = FileClassifier(model, demote_threshold=demote_threshold)
    metrics = classifier.evaluate(test, now_years)
    return classifier, metrics
