"""Timing/metrics layer: turn sweep results into a perf baseline.

``BENCH_runner.json`` is the repo's recorded perf trajectory for the
sweep runner: per-point compute wall times plus enough host context
(CPU count, python version, the source fingerprint) to interpret them.
``scripts/regen_bench.py`` and the CLI's ``--bench-json`` both emit it
through :func:`write_bench_json`.

A record is honest about *how* a sweep ran, not just how long: cache
hits vs fresh computes, retry attempts absorbed per point, structured
errors from ``keep_going`` runs, and worker-pool rebuilds all appear, so
a resumed or fault-ridden sweep is distinguishable from a clean one.
When the sweep ran with ``collect_obs``, the merged deterministic
metrics rollup (see :mod:`repro.obs`) is folded in as well.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

from repro.obs import strip_timings

from .cache import code_fingerprint
from .sweep import SweepResult

__all__ = ["BENCH_SCHEMA", "bench_record", "write_bench_json"]

#: Schema tag for BENCH_runner.json consumers.
BENCH_SCHEMA = "repro.runner.bench/v2"


def bench_record(result: SweepResult) -> dict:
    """JSON-able timing record for one sweep run."""
    record = {
        "sweep": result.name,
        "jobs": result.jobs,
        "total_wall_s": result.total_wall_s,
        "grid_points": len(result.points) + len(result.errors),
        "cached_points": result.cached_count,
        "computed_points": result.computed_count,
        "failed_points": result.failed_count,
        "retry_attempts": result.retry_attempts,
        "pool_rebuilds": result.pool_rebuilds,
        "points": [
            {
                "index": p.index,
                "params": p.params,
                "seed": p.seed,
                "wall_s": p.wall_s,
                "cached": p.cached,
                "attempts": p.attempts,
            }
            for p in result.points
        ],
        "errors": [
            {
                "index": e.index,
                "params": e.params,
                "seed": e.seed,
                "kind": e.kind,
                "message": e.message,
                "attempts": e.attempts,
            }
            for e in result.errors
        ],
    }
    merged = result.merged_metrics()
    if merged is not None:
        record["metrics"] = strip_timings(merged)
    return record


def write_bench_json(
    path: str | Path,
    results: list[SweepResult],
    notes: str = "",
    extras: dict | None = None,
) -> dict:
    """Write a ``BENCH_runner.json`` perf baseline and return its payload.

    ``extras`` merges additional top-level sections into the payload
    (e.g. the ``store`` size/throughput comparison) without touching the
    reserved keys; a collision raises rather than silently shadowing.
    """
    payload = {
        "schema": BENCH_SCHEMA,
        "generated_unix": int(time.time()),
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "code": code_fingerprint(),
        },
        "notes": notes,
        "sweeps": [bench_record(r) for r in results],
    }
    if extras:
        clash = sorted(set(extras) & set(payload))
        if clash:
            raise ValueError(f"extras would shadow reserved bench keys: {clash}")
        payload.update(extras)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload
