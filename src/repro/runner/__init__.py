"""Deterministic parallel experiment runner.

The sweep harness behind the ablation benchmarks and the CLI: fan a grid
of independent ``fn(params, seed)`` points out over worker processes,
cache point results on disk keyed by a stable hash of the config and
of the source that computes it, and record per-point wall times for the
``BENCH_runner.json`` perf baseline.

* :mod:`repro.runner.sweep`   -- Sweep/SweepResult API and the executor
* :mod:`repro.runner.cache`   -- stable hashing, source fingerprint,
  framed-record store
* :mod:`repro.runner.record`  -- checksummed record framing (CRC32C)
* :mod:`repro.runner.metrics` -- BENCH_runner.json emission
* :mod:`repro.runner.points`  -- picklable experiment point functions
"""

from repro.chaos import DURABILITY_LEVELS

from .cache import CacheEntry, ResultCache, code_fingerprint, stable_key
from .metrics import BENCH_SCHEMA, bench_record, write_bench_json
from .record import RecordError, crc32c, frame_record, unframe_record
from .sweep import (
    PointError,
    PointResult,
    Sweep,
    SweepCancelled,
    SweepCrashError,
    SweepResult,
    SweepTimeoutError,
    derive_seeds,
    full_jitter_backoff,
    run_sweep,
)

__all__ = [
    "CacheEntry",
    "DURABILITY_LEVELS",
    "RecordError",
    "ResultCache",
    "code_fingerprint",
    "crc32c",
    "frame_record",
    "stable_key",
    "unframe_record",
    "BENCH_SCHEMA",
    "bench_record",
    "write_bench_json",
    "PointError",
    "PointResult",
    "Sweep",
    "SweepCancelled",
    "SweepCrashError",
    "SweepResult",
    "SweepTimeoutError",
    "derive_seeds",
    "full_jitter_backoff",
    "run_sweep",
]
