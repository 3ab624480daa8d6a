"""Auto-delete predictor: accuracy band and ranking behaviour."""

from __future__ import annotations

import pytest

from repro.classify.auto_delete import train_auto_delete
from repro.classify.corpus import CorpusConfig, generate_corpus
from repro.host.files import FileAttributes, FileKind, FileRecord

NOW = 2.0


@pytest.fixture(scope="module")
def setup():
    corpus = generate_corpus(CorpusConfig(n_files=4000), seed=23)
    predictor, metrics = train_auto_delete(corpus, now_years=NOW, seed=23)
    return corpus, predictor, metrics


class TestAccuracy:
    def test_accuracy_near_cited_79_percent(self, setup):
        """§4.3 cites 79% deletion-prediction accuracy [Khan et al.].
        Our synthetic corpus should land at or above that operating point."""
        _, _, metrics = setup
        assert metrics.accuracy >= 0.75

    def test_precision_and_recall_nontrivial(self, setup):
        _, _, metrics = setup
        assert metrics.precision > 0.55
        assert metrics.recall > 0.5


class TestRanking:
    def test_ranking_sorted_descending(self, setup):
        corpus, predictor, _ = setup
        records = [f.record for f in corpus[:200]]
        ranked = predictor.rank_for_deletion(records, NOW)
        probs = [p for _, p in ranked]
        assert probs == sorted(probs, reverse=True)

    def test_ranking_excludes_system_files(self, setup):
        corpus, predictor, _ = setup
        records = [f.record for f in corpus[:300]]
        ranked = predictor.rank_for_deletion(records, NOW)
        assert all(not r.is_system for r, _ in ranked)

    def test_ranking_of_empty_input(self, setup):
        _, predictor, _ = setup
        assert predictor.rank_for_deletion([], NOW) == []

    def test_deletable_ranked_above_keeper(self, setup):
        _, predictor, _ = setup
        junk = FileRecord(
            file_id=1, path="/dl/x.apk", kind=FileKind.DOWNLOAD, size_bytes=10_000_000,
            attributes=FileAttributes(
                created_years=0.1, last_access_years=0.1, duplicate_count=5,
                is_screenshot=False, access_count=1,
            ),
        )
        keeper = FileRecord(
            file_id=2, path="/p/wedding.mp4", kind=FileKind.VIDEO, size_bytes=10_000_000,
            attributes=FileAttributes(
                created_years=1.5, last_access_years=2.0, user_favorite=True,
                has_known_faces=True, access_count=120,
            ),
        )
        ranked = predictor.rank_for_deletion([keeper, junk], NOW)
        assert [r.file_id for r, _ in ranked] == [1, 2]
        assert ranked[0][1] > ranked[1][1]

    def test_empty_test_set_rejected(self, setup):
        _, predictor, _ = setup
        with pytest.raises(ValueError):
            predictor.evaluate([], NOW)
