"""FTL-fidelity population chunks: per-device identity and chunking.

The fleet's chunk function ``ftl_population_observables`` replays each
device through the page-mapped FTL; these tests pin that a device's
outcome is a pure function of its ``(mix, workload seed, days,
capacity)`` identity -- so any chunking of a population concatenates to
the same columns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fleet.points import ftl_population_observables
from repro.ftl.replay import FtlReplayConfig, replay

DAYS = 20
MIXES = ["light", "typical", "heavy", "typical", "light", "heavy"]
SEEDS = [1000, 1001, 1002, 1003, 1004, 1005]


def _params(lo: int, hi: int) -> dict:
    return {
        "mixes": MIXES[lo:hi],
        "workload_seeds": SEEDS[lo:hi],
        "capacity_gb": 64.0,
        "days": DAYS,
    }


def test_columns_are_chunk_invariant():
    whole = ftl_population_observables(_params(0, 6))
    pieces = [
        ftl_population_observables(_params(lo, hi))
        for lo, hi in ((0, 1), (1, 4), (4, 6))
    ]
    for name, column in whole.items():
        stitched = np.concatenate([p[name] for p in pieces])
        assert np.array_equal(column, stitched), name


def test_devices_match_direct_replay():
    obs = ftl_population_observables(_params(0, 3))
    for u in range(3):
        direct = replay(
            FtlReplayConfig(mix=MIXES[u], days=DAYS, capacity_gb=64.0,
                            seed=SEEDS[u])
        )
        assert obs["wear"][u] == direct.mean_wear
        assert obs["max_wear"][u] == direct.max_wear
        assert obs["gc_erases"][u] == direct.stats.gc_erases
        assert obs["gc_migrations"][u] == direct.stats.gc_migrations
        assert obs["host_writes"][u] == direct.stats.host_writes


def test_column_dtypes_fit_the_result_store():
    obs = ftl_population_observables(_params(0, 2))
    assert obs["wear"].dtype == np.float64
    assert obs["max_wear"].dtype == np.float64
    for name in ("gc_erases", "gc_migrations", "wl_migrations",
                 "host_writes", "retired_blocks"):
        assert obs[name].dtype == np.int64, name


def test_mismatched_device_lists_are_rejected():
    with pytest.raises(ValueError, match="parallel"):
        ftl_population_observables(
            {"mixes": ["light"], "workload_seeds": [1, 2],
             "capacity_gb": 64.0, "days": 5},
        )
