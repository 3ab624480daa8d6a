"""Preference drift model (§4.4 re-evaluation substrate)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.classify.corpus import (
    CRITICAL_VALUE_THRESHOLD,
    DELETE_VALUE_THRESHOLD,
    CorpusConfig,
    generate_corpus,
)
from repro.classify.drift import DriftConfig, drift_corpus
from repro.host.files import SYSTEM_KINDS


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusConfig(n_files=1500), seed=99)


class TestDrift:
    def test_preserves_corpus_size_and_ids(self, corpus):
        drifted = drift_corpus(corpus, 1.0, seed=1)
        assert len(drifted) == len(corpus)
        assert [f.record.file_id for f in drifted] == [
            f.record.file_id for f in corpus
        ]

    def test_system_files_untouched(self, corpus):
        drifted = drift_corpus(corpus, 1.0, seed=1)
        for before, after in zip(corpus, drifted):
            if before.record.kind in SYSTEM_KINDS:
                assert after is before

    def test_values_actually_move(self, corpus):
        drifted = drift_corpus(corpus, 1.0, seed=1)
        moved = sum(
            1 for b, a in zip(corpus, drifted)
            if b.record.kind not in SYSTEM_KINDS and a.latent_value != b.latent_value
        )
        user_files = sum(1 for f in corpus if f.record.kind not in SYSTEM_KINDS)
        assert moved > 0.95 * user_files

    def test_values_stay_in_unit_interval(self, corpus):
        drifted = drift_corpus(corpus, 3.0, seed=2)
        assert all(0.0 <= f.latent_value <= 1.0 for f in drifted)

    def test_labels_recomputed_from_thresholds(self, corpus):
        config = CorpusConfig()
        drifted = drift_corpus(corpus, 1.0, corpus_config=config, seed=3)
        for f in drifted:
            if f.record.kind in SYSTEM_KINDS:
                continue
            assert f.critical == (f.latent_value >= CRITICAL_VALUE_THRESHOLD)
            assert f.user_would_delete == (
                f.latent_value <= DELETE_VALUE_THRESHOLD
            )

    def test_some_labels_flip_over_time(self, corpus):
        drifted = drift_corpus(corpus, 2.0, seed=4)
        flips = sum(1 for b, a in zip(corpus, drifted) if b.critical != a.critical)
        assert flips > 0.05 * len(corpus)

    def test_mean_reversion_pulls_toward_long_run(self, corpus):
        config = DriftConfig(volatility=0.0, reversion=1.0, long_run_mean=0.4)
        drifted = drift_corpus(corpus, 1.0, config=config, seed=5)
        user = [
            (b.latent_value, a.latent_value)
            for b, a in zip(corpus, drifted)
            if b.record.kind not in SYSTEM_KINDS
        ]
        for before, after in user:
            assert abs(after - 0.4) <= abs(before - 0.4) + 1e-9

    def test_valued_files_keep_fresh_access_times(self, corpus):
        drifted = drift_corpus(corpus, 1.0, seed=6)
        now = CorpusConfig().now_years + 1.0
        high = [f for f in drifted if f.latent_value > 0.85
                and f.record.kind not in SYSTEM_KINDS]
        if not high:
            pytest.skip("no high-value files after drift")
        fresh = sum(1 for f in high if f.record.attributes.last_access_years == now)
        assert fresh / len(high) > 0.8

    def test_deterministic_under_seed(self, corpus):
        a = drift_corpus(corpus, 1.0, seed=7)
        b = drift_corpus(corpus, 1.0, seed=7)
        assert all(x.latent_value == y.latent_value for x, y in zip(a, b))

    def test_original_corpus_not_mutated(self, corpus):
        before = [(f.latent_value, f.record.attributes.access_count) for f in corpus]
        drift_corpus(corpus, 2.0, seed=8)
        after = [(f.latent_value, f.record.attributes.access_count) for f in corpus]
        assert before == after
