"""Shared helpers for the experiment benchmark harness.

Each benchmark regenerates one figure/claim-set from the paper, prints
the rows/series the paper reports plus a PAPER-vs-MEASURED claims table,
and asserts the claims hold.  ``pytest benchmarks/ --benchmark-only``
runs everything; individual experiments run as plain pytest tests too.
"""

from __future__ import annotations

import os

from repro.analysis.claims import ClaimCheck, claims_table

__all__ = ["report", "run_once", "runner_jobs"]


def runner_jobs(default: int = 1) -> int:
    """Worker count for sweep-shaped benchmarks.

    Serial by default so claim tables stay reproducible on any box; set
    ``REPRO_JOBS`` to fan sweeps out (results are bit-identical either
    way -- the runner derives per-point seeds from point indices).
    """
    return int(os.environ.get("REPRO_JOBS", default))


def report(title: str, body: str, checks: list[ClaimCheck]) -> None:
    """Print a uniform experiment report and assert every claim."""
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
    print(body)
    print()
    print(claims_table(checks))
    failed = [c for c in checks if not c.holds]
    assert not failed, f"claims diverged: {[c.claim_id for c in failed]}"


def run_once(benchmark, func):
    """Benchmark an expensive function with a single measured round."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
