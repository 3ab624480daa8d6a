"""FileClassifier: rule layer, thresholds, evaluation metrics."""

from __future__ import annotations

import pytest

from repro.classify.classifier import FileClassifier, train_classifier
from repro.classify.corpus import CorpusConfig, generate_corpus
from repro.host.files import FileAttributes, FileKind, FileRecord
from repro.host.hints import Placement

NOW = 2.0


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusConfig(n_files=4000), seed=11)


@pytest.fixture(scope="module")
def trained(corpus):
    return train_classifier(corpus, now_years=NOW, seed=11)


class TestTraining:
    def test_accuracy_reasonable(self, trained):
        _, metrics = trained
        assert metrics.accuracy > 0.75

    def test_naive_bayes_also_trains(self, corpus):
        _, metrics = train_classifier(corpus, now_years=NOW, kind="naive_bayes", seed=11)
        assert metrics.accuracy > 0.7

    def test_unknown_kind_rejected(self, corpus):
        with pytest.raises(ValueError):
            train_classifier(corpus, now_years=NOW, kind="svm")

    def test_conservative_demotion(self, trained):
        """§4.3: the classifier errs on the side of caution -- few truly
        critical files should land on SPARE."""
        _, metrics = trained
        assert metrics.critical_demotion_rate < 0.2

    def test_most_files_still_demoted(self, trained):
        """The density gain requires most low-value data on SPARE."""
        _, metrics = trained
        assert metrics.spare_fraction > 0.35


class TestRuleLayer:
    def test_system_files_never_demoted(self, trained):
        classifier, _ = trained
        record = FileRecord(
            file_id=1, path="/sys/lib", kind=FileKind.OS_SYSTEM, size_bytes=100,
            attributes=FileAttributes(),
        )
        hint = classifier.classify(record, NOW)
        assert hint.placement is Placement.SYS
        assert hint.confidence == 1.0

    def test_old_idle_screenshot_demoted(self, trained):
        classifier, _ = trained
        record = FileRecord(
            file_id=2, path="/p/s.png", kind=FileKind.PHOTO, size_bytes=100_000,
            attributes=FileAttributes(
                created_years=0.1, last_access_years=0.1, is_screenshot=True,
                duplicate_count=4, access_count=1,
            ),
        )
        hint = classifier.classify(record, NOW)
        assert hint.placement is Placement.SPARE

    def test_favorite_family_photo_stays_sys(self, trained):
        classifier, _ = trained
        record = FileRecord(
            file_id=3, path="/p/f.jpg", kind=FileKind.PHOTO, size_bytes=100_000,
            attributes=FileAttributes(
                created_years=1.8, last_access_years=2.0, user_favorite=True,
                has_known_faces=True, access_count=80,
            ),
        )
        hint = classifier.classify(record, NOW)
        assert hint.placement is Placement.SYS


class TestThreshold:
    def test_invalid_threshold_rejected(self, trained):
        classifier, _ = trained
        with pytest.raises(ValueError):
            FileClassifier(classifier.model, demote_threshold=0.0)

    def test_higher_threshold_demotes_more(self, corpus):
        """A3 ablation axis: conservativeness trades density for safety."""
        _, loose = train_classifier(corpus, NOW, demote_threshold=0.6, seed=11)
        _, tight = train_classifier(corpus, NOW, demote_threshold=0.1, seed=11)
        assert loose.spare_fraction > tight.spare_fraction
        assert loose.critical_demotion_rate >= tight.critical_demotion_rate

    def test_empty_test_set_rejected(self, trained):
        classifier, _ = trained
        with pytest.raises(ValueError):
            classifier.evaluate([], NOW)

