"""Off-store fleet queries == in-memory reduction, exactly.

The point of the column store: once a fleet has run, its percentile /
distribution questions are answered from the block index -- no shard
pickles rehydrated, nothing recomputed -- and the answers are *the
same floats* the in-memory reduction produced.  Pinned here for exact
and histogram fleets, across shard/chunk geometries and worker counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fleet import (
    FleetPlan,
    fleet_shard_point,
    fleet_store_keys,
    fleet_wear_from_store,
    run_fleet,
)
from repro.runner.cache import ResultCache
from repro.store import ColumnStore

N_DEVICES = 30
DAYS = 60


def _plan(**overrides) -> FleetPlan:
    defaults = dict(
        n_devices=N_DEVICES, days=DAYS, capacity_gb=64.0, seed=313,
        shard_size=10, chunk=10,
    )
    defaults.update(overrides)
    return FleetPlan(**defaults)


QS = (0.5, 0.9, 0.99)


def _fields(digest) -> tuple:
    """Every field of a digest but its bin counts (an array, compared
    with ``np.array_equal``)."""
    return (digest.count, digest.total, digest.min, digest.max, digest.exact)


class TestWearEquivalence:
    @pytest.mark.parametrize(
        ("shard_size", "chunk", "jobs"),
        [(10, 10, 1), (7, 7, 1), (17, 5, 1), (10, 10, 2)],
        ids=["aligned", "ragged", "mixed", "parallel"],
    )
    def test_exact_fleet_matches_bit_for_bit(self, tmp_path, shard_size, chunk, jobs):
        plan = _plan(shard_size=shard_size, chunk=chunk)
        fleet = run_fleet(plan, jobs=jobs, cache_dir=tmp_path)
        off_disk = fleet_wear_from_store(plan, tmp_path)
        # the exact vector is identical floats in identical (device) order
        assert off_disk.exact == fleet.wear_values()
        assert off_disk.count == fleet.wear.count == N_DEVICES
        assert np.array_equal(off_disk.counts, fleet.wear.counts)
        assert off_disk.min == fleet.wear.min
        assert off_disk.max == fleet.wear.max
        for q in QS:
            assert off_disk.quantile(q) == fleet.wear.quantile(q)
        assert off_disk.worn_out_fraction() == fleet.wear.worn_out_fraction()
        assert off_disk.total == fleet.wear.total
        assert off_disk.mean() == fleet.wear.mean()

    @pytest.mark.parametrize("exact_cap", [N_DEVICES, 0], ids=["exact", "histogram"])
    def test_off_disk_digest_equals_in_memory_in_every_field(self, tmp_path, exact_cap):
        """Both routes digest each shard's wear column alone and sum the
        shard totals in shard order, so even ``total`` agrees (on this
        fleet one running sum over all devices differs in its last bit)."""
        plan = _plan(seed=606, shard_size=7, chunk=4, exact_cap=exact_cap)
        fleet = run_fleet(plan, jobs=1, cache_dir=tmp_path)
        off_disk = fleet_wear_from_store(plan, tmp_path)
        assert np.array_equal(off_disk.counts, fleet.wear.counts)
        assert _fields(off_disk) == _fields(fleet.wear)

    def test_histogram_fleet_matches_lane_for_lane(self, tmp_path):
        plan = _plan(shard_size=7, chunk=4, exact_cap=0)
        fleet = run_fleet(plan, cache_dir=tmp_path)
        off_disk = fleet_wear_from_store(plan, tmp_path)
        assert not plan.exact and off_disk.exact is None
        assert np.array_equal(off_disk.counts, fleet.wear.counts)
        assert off_disk.min == fleet.wear.min
        assert off_disk.max == fleet.wear.max
        assert off_disk.total == fleet.wear.total
        for q in QS:
            assert off_disk.quantile(q) == fleet.wear.quantile(q)

    def test_store_query_needs_no_recompute_and_no_pickles(self, tmp_path):
        """The query path touches only ``columns.rcs``: deleting every
        shard pickle (and making recompute impossible) changes nothing."""
        plan = _plan()
        fleet = run_fleet(plan, cache_dir=tmp_path)
        for pkl in tmp_path.glob("*.pkl"):
            pkl.unlink()
        off_disk = fleet_wear_from_store(plan, tmp_path)
        assert off_disk.exact == fleet.wear_values()

    def test_other_observable_columns_are_queryable(self, tmp_path):
        """Any shard observable -- not just wear -- concatenates off the
        store in device order, equal to a flat single-shard compute."""
        plan = _plan()
        run_fleet(plan, cache_dir=tmp_path)
        flat = fleet_shard_point(
            _plan(shard_size=N_DEVICES, chunk=N_DEVICES).shard_grid()[0], 0
        )
        store = ColumnStore(tmp_path / ResultCache.STORE_FILE, mode="read")
        for column in ("spare_wear", "capacity_gb", "retired_groups"):
            parts = [
                store.get(key, columns=[f"obs.{column}"])[f"obs.{column}"]
                for key in fleet_store_keys(plan)
            ]
            got = np.concatenate(parts)
            assert got.tobytes() == flat["obs"][column].tobytes(), column


class TestMissingShards:
    def test_unfinished_fleet_raises_not_partial(self, tmp_path):
        plan = _plan()
        run_fleet(plan, cache_dir=tmp_path)
        # drop one shard from the store by superseding nothing: rewrite
        # the store without the last shard's key
        path = tmp_path / ResultCache.STORE_FILE
        store = ColumnStore(path, mode="append")
        victim = fleet_store_keys(plan)[-1]
        live = {k: store.get(k) for k in store.keys() if k != victim}
        path.unlink()
        rebuilt = ColumnStore(path)
        for key, arrays in live.items():
            rebuilt.put(key, arrays)
        rebuilt.close()
        with pytest.raises(KeyError):
            fleet_wear_from_store(plan, tmp_path)

    def test_no_store_at_all_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            fleet_wear_from_store(_plan(), tmp_path)


class TestStoreKeys:
    def test_keys_match_what_run_fleet_persisted(self, tmp_path):
        plan = _plan(shard_size=7)
        run_fleet(plan, cache_dir=tmp_path)
        store = ColumnStore(tmp_path / ResultCache.STORE_FILE, mode="read")
        assert sorted(fleet_store_keys(plan)) == store.keys()

    def test_keys_are_name_scoped(self):
        plan = _plan()
        assert fleet_store_keys(plan, name="a") != fleet_store_keys(plan, name="b")
