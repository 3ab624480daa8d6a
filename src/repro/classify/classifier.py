"""FileClassifier: the machine-driven data classification of §4.4.

Wraps a trained model behind the decision SOS actually needs: *which
partition should this file live on, and with what confidence?*  Two rules
from the paper sit above the learned model:

* system-functionality files are SYS unconditionally ("OS files are
  easily identifiable as critical", §4.4);
* demotion to SPARE is **conservative**: a file moves to SPARE only when
  the model's P(critical) falls below ``demote_threshold`` ("erring on
  the side of caution", §4.3) -- raising the threshold trades density
  gain for safety, the A3 ablation axis.  The SOS design's threshold is
  :data:`DEMOTE_THRESHOLD`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.host.files import FileRecord
from repro.host.hints import Placement, PlacementHint

from .corpus import LabelledFile, binary_metrics, labelled_matrix, training_split
from .features import extract_features
from .logistic import LogisticRegression
from .naive_bayes import GaussianNaiveBayes

__all__ = ["DEMOTE_THRESHOLD", "FileClassifier", "ClassifierMetrics", "train_classifier"]

#: the SOS design's demotion threshold: P(critical) below which a file
#: moves to SPARE
DEMOTE_THRESHOLD = 0.35


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
        demote_threshold: float = DEMOTE_THRESHOLD,
    ) -> None:
        if not 0.0 < demote_threshold < 1.0:
            raise ValueError("demote_threshold must be in (0, 1)")
        self.model = model
        self.demote_threshold = demote_threshold

    def p_critical(self, X: np.ndarray) -> np.ndarray:
        """Model probability that each row's file is critical."""
        if isinstance(self.model, LogisticRegression):
            return self.model.predict_proba(X)
        # classes_ sorted ascending; critical encoded as 1
        critical_idx = int(np.where(self.model.classes_ == 1)[0][0])
        return self.model.predict_proba(X)[:, critical_idx]

    def classify(self, record: FileRecord, now_years: float) -> PlacementHint:
        """Placement hint for one file (rule layer + learned model)."""
        if record.is_system:
            return PlacementHint(record.file_id, Placement.SYS, confidence=1.0)
        features = extract_features(record, now_years).reshape(1, -1)
        p_crit = float(self.p_critical(features)[0])
        if p_crit < self.demote_threshold:
            return PlacementHint(record.file_id, Placement.SPARE, confidence=1.0 - p_crit)
        return PlacementHint(record.file_id, Placement.SYS, confidence=p_crit)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, test_set: list[LabelledFile], now_years: float) -> ClassifierMetrics:
        """Held-out metrics against ground-truth criticality labels."""
        if not test_set:
            raise ValueError("empty test set")
        X, y = labelled_matrix(test_set, now_years, "critical")
        p = self.p_critical(X)
        accuracy, precision, recall = binary_metrics((p >= 0.5).astype(int), y)
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
    demote_threshold: float = DEMOTE_THRESHOLD,
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
    X, y, test = training_split(corpus, now_years, seed, "critical")
    model: LogisticRegression | GaussianNaiveBayes
    if kind == "logistic":
        model = LogisticRegression().fit(X, y)
    else:
        model = GaussianNaiveBayes().fit(X, y)
    classifier = FileClassifier(model, demote_threshold=demote_threshold)
    metrics = classifier.evaluate(test, now_years)
    return classifier, metrics
