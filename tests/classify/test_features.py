"""Feature extraction shape and semantics."""

from __future__ import annotations

import numpy as np
import pytest
from classify_oracles import extract_features as oracle_features
from classify_oracles import feature_matrix as oracle_matrix

from repro.classify.corpus import CorpusConfig, generate_corpus
from repro.classify.features import FEATURE_NAMES, extract_features, feature_matrix
from repro.host.files import FileAttributes, FileKind, FileRecord


def make_record(kind=FileKind.PHOTO, **attrs) -> FileRecord:
    return FileRecord(
        file_id=1, path="/x", kind=kind, size_bytes=5000,
        attributes=FileAttributes(**attrs),
    )


class TestExtract:
    def test_vector_length_matches_names(self):
        vec = extract_features(make_record(), now_years=1.0)
        assert vec.shape == (len(FEATURE_NAMES),)

    def test_kind_onehot_is_exclusive(self):
        vec = extract_features(make_record(FileKind.VIDEO), now_years=1.0)
        onehot = vec[12:]
        assert onehot.sum() == 1.0
        hot_index = int(np.argmax(onehot))
        assert FEATURE_NAMES[12 + hot_index] == "kind_video"

    def test_boolean_attributes_map_to_01(self):
        vec = extract_features(
            make_record(user_favorite=True, is_screenshot=False), now_years=1.0
        )
        names = dict(zip(FEATURE_NAMES, vec))
        assert names["user_favorite"] == 1.0
        assert names["is_screenshot"] == 0.0

    def test_counts_are_log_scaled(self):
        vec = extract_features(make_record(access_count=0), 1.0)
        names = dict(zip(FEATURE_NAMES, vec))
        assert names["log_access_count"] == 0.0
        vec2 = extract_features(make_record(access_count=100), 1.0)
        names2 = dict(zip(FEATURE_NAMES, vec2))
        assert names2["log_access_count"] == pytest.approx(np.log1p(100))

    def test_age_uses_now(self):
        record = make_record(created_years=1.0)
        names = dict(zip(FEATURE_NAMES, extract_features(record, 3.0)))
        assert names["age_years"] == pytest.approx(2.0)


class TestMatrix:
    def test_matrix_stacks_rows(self):
        records = [make_record(), make_record(FileKind.DOCUMENT)]
        X = feature_matrix(records, now_years=1.0)
        assert X.shape == (2, len(FEATURE_NAMES))

    def test_empty_matrix(self):
        X = feature_matrix([], now_years=1.0)
        assert X.shape == (0, len(FEATURE_NAMES))


class TestOracle:
    """The column-built matrix is bitwise the per-record oracle's stack."""

    NOW = 2.0

    def records(self) -> list[FileRecord]:
        corpus = [f.record for f in generate_corpus(CorpusConfig(n_files=300), seed=42)]
        # one record per kind, plus one created (and last read) after
        # ``NOW``: the age and idle clamps to 0.0
        by_kind = [
            make_record(kind, created_years=0.5, last_access_years=1.5,
                        access_count=7, modify_count=2, duplicate_count=1,
                        sensitivity_score=0.25, shared_from_other=True)
            for kind in FileKind
        ]
        future = make_record(FileKind.AUDIO, created_years=self.NOW + 0.5,
                             last_access_years=self.NOW + 1.0)
        return corpus + by_kind + [future]

    def test_matrix_bytes_match_stacked_oracle_rows(self):
        records = self.records()
        got = feature_matrix(records, self.NOW)
        want = np.stack([oracle_features(r, self.NOW) for r in records])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == oracle_matrix(records, self.NOW).tobytes()

    def test_one_row_case_matches_oracle_vector(self):
        for record in self.records()[-10:]:
            got = extract_features(record, self.NOW)
            want = oracle_features(record, self.NOW)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_age_clamp_row(self):
        future = self.records()[-1]
        names = dict(zip(FEATURE_NAMES, extract_features(future, self.NOW)))
        assert names["age_years"] == 0.0
        assert names["idle_years"] == 0.0

    def test_empty_matches_oracle(self):
        assert feature_matrix([], self.NOW).shape == oracle_matrix([], self.NOW).shape
