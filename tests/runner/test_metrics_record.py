"""Regression: bench records must not drop runtime accounting.

The streaming coordinator used to report only per-point wall times;
cache hit/miss counts, retry attempts, structured errors, and pool
rebuilds were silently dropped from ``BENCH_runner.json``.  These tests
pin the v2 record schema to the full accounting.
"""

from __future__ import annotations

import json

import pytest

from repro.runner.cache import code_fingerprint
from repro.runner.faultfns import flaky_point
from repro.runner.metrics import BENCH_SCHEMA, bench_record, write_bench_json
from repro.runner.sweep import Sweep, run_sweep


def _flaky_sweep(scratch, name: str) -> Sweep:
    grid = (
        {"index": 0, "fail_times": 0, "scratch": str(scratch)},
        {"index": 1, "fail_times": 2, "scratch": str(scratch)},
    )
    return Sweep(name=name, fn=flaky_point, grid=grid, base_seed=3)


class TestBenchRecord:
    def test_records_retry_attempts(self, tmp_path):
        outcome = run_sweep(_flaky_sweep(tmp_path, "bench-retry"), retries=2)
        record = bench_record(outcome)
        assert record["retry_attempts"] == 2
        by_index = {p["index"]: p for p in record["points"]}
        assert by_index[0]["attempts"] == 1
        assert by_index[1]["attempts"] == 3

    def test_records_cache_hits_and_misses_on_resume(self, tmp_path):
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        cache_dir = tmp_path / "cache"
        sweep = _flaky_sweep(scratch, "bench-cache")
        first = bench_record(run_sweep(sweep, cache_dir=cache_dir, retries=2))
        assert (first["cached_points"], first["computed_points"]) == (0, 2)
        resumed = bench_record(run_sweep(sweep, cache_dir=cache_dir, retries=2))
        assert (resumed["cached_points"], resumed["computed_points"]) == (2, 0)
        # cached points do not re-report the original run's retries
        assert resumed["retry_attempts"] == 0

    def test_records_structured_errors_under_keep_going(self, tmp_path):
        grid = ({"index": 0, "fail_times": 99, "scratch": str(tmp_path)},)
        sweep = Sweep(name="bench-errors", fn=flaky_point, grid=grid)
        outcome = run_sweep(sweep, retries=1, keep_going=True)
        record = bench_record(outcome)
        assert record["grid_points"] == 1
        assert record["failed_points"] == 1
        (error,) = record["errors"]
        assert error["kind"] == "error"
        assert error["attempts"] == 2
        assert "flaky point 0" in error["message"]

    def test_records_merged_metrics_when_collected(self, tmp_path):
        outcome = run_sweep(
            _flaky_sweep(tmp_path, "bench-obs"), retries=2, collect_obs=True
        )
        record = bench_record(outcome)
        assert "metrics" in record
        # deterministic view only: no wall times inside the rollup
        for span in record["metrics"]["spans"].values():
            assert set(span) == {"calls"}

    def test_record_without_obs_has_no_metrics_key(self, tmp_path):
        outcome = run_sweep(_flaky_sweep(tmp_path, "bench-plain"), retries=2)
        assert "metrics" not in bench_record(outcome)


class TestWriteBenchJson:
    def test_payload_round_trips_with_v2_schema(self, tmp_path):
        outcome = run_sweep(_flaky_sweep(tmp_path, "bench-io"), retries=2)
        path = tmp_path / "BENCH_runner.json"
        payload = write_bench_json(path, [outcome], notes="test")
        assert payload["schema"] == BENCH_SCHEMA == "repro.runner.bench/v2"
        on_disk = json.loads(path.read_text())
        assert on_disk == payload
        assert on_disk["host"]["code"] == code_fingerprint()
        (sweep_rec,) = on_disk["sweeps"]
        for key in ("retry_attempts", "pool_rebuilds", "failed_points", "errors"):
            assert key in sweep_rec

    def test_extras_merge_without_shadowing(self, tmp_path):
        outcome = run_sweep(_flaky_sweep(tmp_path, "bench-extras"), retries=2)
        path = tmp_path / "BENCH_runner.json"
        payload = write_bench_json(
            path, [outcome], extras={"store": {"ratio": 5.0}}
        )
        assert payload["store"] == {"ratio": 5.0}
        assert json.loads(path.read_text())["store"] == {"ratio": 5.0}
        with pytest.raises(ValueError):
            write_bench_json(path, [outcome], extras={"sweeps": []})
