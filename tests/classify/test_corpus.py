"""Synthetic corpus: composition, labels, determinism."""

from __future__ import annotations

import dataclasses

import pytest
from classify_oracles import generate_corpus as oracle_corpus

from repro.classify.corpus import CorpusConfig, generate_corpus
from repro.host.files import MEDIA_KINDS, SYSTEM_KINDS


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusConfig(n_files=3000), seed=42)


class TestComposition:
    def test_size(self, corpus):
        assert len(corpus) == 3000

    def test_media_majority(self, corpus):
        """§4.2: media comprises over half of personal files."""
        media = sum(1 for f in corpus if f.record.kind in MEDIA_KINDS)
        assert media / len(corpus) > 0.5

    def test_system_files_always_critical_never_deleted(self, corpus):
        for f in corpus:
            if f.record.kind in SYSTEM_KINDS:
                assert f.critical
                assert not f.user_would_delete

    def test_label_rates_plausible(self, corpus):
        crit = sum(f.critical for f in corpus) / len(corpus)
        dele = sum(f.user_would_delete for f in corpus) / len(corpus)
        assert 0.25 < crit < 0.65
        assert 0.1 < dele < 0.5

    def test_unique_paths_and_ids(self, corpus):
        assert len({f.record.path for f in corpus}) == len(corpus)
        assert len({f.record.file_id for f in corpus}) == len(corpus)

    def test_attributes_within_time_range(self, corpus):
        for f in corpus[:200]:
            assert 0.0 <= f.record.attributes.created_years <= 2.0
            assert f.record.attributes.last_access_years <= 2.0 + 1e-9


class TestLabelStructure:
    def test_latent_value_correlates_with_critical(self, corpus):
        """High-value files should be labelled critical far more often."""
        user_files = [f for f in corpus if f.record.kind not in SYSTEM_KINDS]
        high = [f for f in user_files if f.latent_value > 0.8]
        low = [f for f in user_files if f.latent_value < 0.2]
        assert high and low
        high_crit = sum(f.critical for f in high) / len(high)
        low_crit = sum(f.critical for f in low) / len(low)
        assert high_crit > low_crit + 0.4

    def test_favorites_have_higher_value_on_average(self, corpus):
        user_files = [f for f in corpus if f.record.kind not in SYSTEM_KINDS]
        fav = [f.latent_value for f in user_files if f.record.attributes.user_favorite]
        not_fav = [f.latent_value for f in user_files if not f.record.attributes.user_favorite]
        assert sum(fav) / len(fav) > sum(not_fav) / len(not_fav)


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        a = generate_corpus(CorpusConfig(n_files=100), seed=7)
        b = generate_corpus(CorpusConfig(n_files=100), seed=7)
        for fa, fb in zip(a, b):
            assert fa.record.path == fb.record.path
            assert fa.critical == fb.critical
            assert fa.latent_value == fb.latent_value

    def test_different_seed_differs(self):
        a = generate_corpus(CorpusConfig(n_files=100), seed=7)
        b = generate_corpus(CorpusConfig(n_files=100), seed=8)
        assert any(fa.latent_value != fb.latent_value for fa, fb in zip(a, b))


def _fields(obj) -> tuple:
    """Every field of a (nested) dataclass with its type; floats by
    ``.hex()``, so equal tuples mean bit-identical values."""
    out = []
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if dataclasses.is_dataclass(value):
            out.append((field.name, _fields(value)))
        elif isinstance(value, float):
            out.append((field.name, "float", value.hex()))
        else:
            out.append((field.name, type(value).__name__, value))
    return tuple(out)


class TestOracle:
    """The table-driven sampler draws the per-file oracle's corpus."""

    @pytest.mark.parametrize("n_files", [0, 1, 100, 5000])
    @pytest.mark.parametrize("seed", [0, 7, 42, 55, 505, 808])
    def test_every_field_matches_per_file_oracle(self, seed, n_files):
        config = CorpusConfig(n_files=n_files)
        got = generate_corpus(config, seed=seed)
        want = oracle_corpus(config, seed=seed)
        assert len(got) == len(want) == n_files
        for g, w in zip(got, want):
            assert _fields(g) == _fields(w)
