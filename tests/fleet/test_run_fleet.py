"""run_fleet: sharding composes the batch engine with the sweep runner.

The load-bearing claims, each pinned here on a small fast fleet:

* shard/chunk geometry never changes any device's result (bit-identical
  wear vectors across shardings, equal to one flat batch);
* crash-resume rides the sweep cache per shard;
* reduction is streaming (shard values dropped after folding);
* serial and parallel fleets agree exactly, obs rollups included.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.fleet import FleetPlan, fleet_shard_point, fleet_store_keys, run_fleet
from repro.obs import strip_timings
from repro.runner import code_fingerprint

N_DEVICES = 30
DAYS = 90


def _plan(**overrides) -> FleetPlan:
    defaults = dict(
        n_devices=N_DEVICES, days=DAYS, capacity_gb=64.0, seed=606,
        shard_size=10, chunk=10,
    )
    defaults.update(overrides)
    return FleetPlan(**defaults)


@pytest.fixture(scope="module")
def golden_wear():
    """The whole population as ONE shard and ONE chunk: no boundaries."""
    fleet = run_fleet(_plan(shard_size=N_DEVICES, chunk=N_DEVICES))
    return np.asarray(fleet.wear_values())


class TestShardInvariance:
    @pytest.mark.parametrize(
        ("shard_size", "chunk"),
        [(10, 10), (7, 7), (17, 5), (N_DEVICES, 4), (1, 1)],
        ids=["aligned", "ragged", "mixed", "one-shard", "device-per-shard"],
    )
    def test_bit_identical_across_geometries(self, golden_wear, shard_size, chunk):
        fleet = run_fleet(_plan(shard_size=shard_size, chunk=chunk))
        assert np.array_equal(np.asarray(fleet.wear_values()), golden_wear)

    def test_histogram_lanes_invariant_too(self, golden_wear):
        a = run_fleet(_plan(shard_size=7, chunk=3, exact_cap=0))
        b = run_fleet(_plan(shard_size=13, chunk=13, exact_cap=0))
        assert np.array_equal(a.wear.counts, b.wear.counts)
        assert a.wear.count == b.wear.count == N_DEVICES
        assert a.wear.min == b.wear.min and a.wear.max == b.wear.max
        assert a.wear.min == golden_wear.min()

    def test_quantiles_match_flat_population(self, golden_wear):
        fleet = run_fleet(_plan())
        for q in (0.5, 0.9, 0.99):
            assert fleet.wear.quantile(q) == float(np.quantile(golden_wear, q))


class TestCrashResume:
    def test_second_run_is_all_cache_hits_and_identical(self, tmp_path, golden_wear):
        plan = _plan(shard_size=7, chunk=7)
        first = run_fleet(plan, cache_dir=tmp_path)
        second = run_fleet(plan, cache_dir=tmp_path)
        assert first.sweep.computed_count == plan.n_shards
        assert second.sweep.cached_count == plan.n_shards
        assert second.sweep.computed_count == 0
        assert np.array_equal(np.asarray(second.wear_values()), golden_wear)

    def test_partial_cache_resumes_missing_shards_only(self, tmp_path, golden_wear):
        plan = _plan(shard_size=10, chunk=10)
        from repro.fleet.run import _fleet_sweep
        from repro.runner import run_sweep

        # run the fleet's own sweep once to warm, then delete one entry
        run_sweep(_fleet_sweep(plan, "fleet"), cache_dir=tmp_path)
        removed = 0
        for entry in list(tmp_path.glob("*.pkl"))[:1]:
            entry.unlink()
            removed += 1
        assert removed == 1
        resumed = run_fleet(plan, cache_dir=tmp_path)
        assert resumed.sweep.cached_count == plan.n_shards - 1
        assert resumed.sweep.computed_count == 1
        assert np.array_equal(np.asarray(resumed.wear_values()), golden_wear)


    def test_concurrent_fleets_share_one_cache_dir(self, tmp_path):
        """Two fleets running at once on one cache directory (a gateway
        runs two jobs in threads): warm reruns hit every shard, serve
        each fleet its own wear, and quarantine nothing."""
        plans = [_plan(seed=seed, days=30, shard_size=3, chunk=3) for seed in (606, 607)]
        isolated = [run_fleet(plan).wear_values() for plan in plans]
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda plan: run_fleet(plan, cache_dir=tmp_path), plans,
                          timeout=300))
        for plan, expected in zip(plans, isolated):
            warm = run_fleet(plan, cache_dir=tmp_path)
            assert warm.sweep.cached_count == plan.n_shards
            assert warm.wear_values() == expected
            assert warm.sweep.storage["corrupt_quarantined"] == 0


class TestStreamingReduction:
    def test_shard_values_are_dropped(self):
        fleet = run_fleet(_plan())
        assert all(p.value is None for p in fleet.sweep.points)

    def test_devices_accounted(self):
        fleet = run_fleet(_plan(shard_size=7))
        assert fleet.devices == N_DEVICES
        assert fleet.ok
        assert fleet.summary()["shards"] == fleet.plan.n_shards == 5
        assert fleet.summary()["code"] == code_fingerprint()


class TestParallelParity:
    def test_serial_equals_parallel(self, golden_wear):
        plan = _plan(shard_size=7, chunk=4)
        serial = run_fleet(plan, jobs=1)
        parallel = run_fleet(plan, jobs=2)
        assert np.array_equal(
            np.asarray(serial.wear_values()), np.asarray(parallel.wear_values())
        )
        assert np.array_equal(serial.wear.counts, parallel.wear.counts)
        assert np.array_equal(np.asarray(serial.wear_values()), golden_wear)

    def test_mean_is_completion_order_invariant(self, monkeypatch):
        """Shard 0 finishes last at ``jobs=2``; the fleet still sums
        shard totals in shard order, so ``mean`` is the serial one (on
        this fleet, summing in completion order changes its last bit)."""
        plan = _plan(seed=313)
        serial = run_fleet(plan, jobs=1)
        monkeypatch.setattr("repro.fleet.run.fleet_shard_point", _finish_first_shard_last)
        parallel = run_fleet(plan, jobs=2)
        assert parallel.wear.total == serial.wear.total
        assert parallel.summary()["mean"] == serial.summary()["mean"]

    def test_obs_rollup_deterministic(self):
        plan = _plan(shard_size=10)
        serial = run_fleet(plan, jobs=1, collect_obs=True)
        parallel = run_fleet(plan, jobs=2, collect_obs=True)
        assert serial.obs_metrics is not None
        assert strip_timings(serial.obs_metrics) == strip_timings(parallel.obs_metrics)
        # the engine really ran under the observer in every worker
        assert serial.obs_metrics["counters"]["engine.days"] == N_DEVICES * DAYS


class TestExactnessPolicy:
    def test_large_fleet_reduces_to_histogram(self):
        fleet = run_fleet(_plan(exact_cap=N_DEVICES - 1))
        assert not fleet.wear.is_exact
        assert fleet.wear_values() is None
        assert fleet.wear.count == N_DEVICES

    def test_exactness_decided_by_plan_not_completion(self):
        assert _plan().exact
        assert not _plan(exact_cap=0).exact


class TestShardPoint:
    def test_exact_shard_preserves_device_order(self, golden_wear):
        params = _plan(shard_size=N_DEVICES, chunk=9).shard_grid()[0]
        out = fleet_shard_point(params, 0)
        # v3 contract: a shard's value is its observable columns alone;
        # per-device wear (device order) is the ``wear`` column
        assert set(out) == {"devices", "start", "obs"}
        assert out["devices"] == N_DEVICES and out["start"] == 0
        assert np.array_equal(out["obs"]["wear"], golden_wear)
        assert out["obs"]["wear"].dtype == np.float64
        assert set(out["obs"]) >= {"wear", "spare_wear", "capacity_gb",
                                   "retired_groups", "resuscitated_groups"}

    def test_faults_ride_the_shard(self):
        plan = _plan(
            shard_size=N_DEVICES, chunk=N_DEVICES,
            faults={"block_infant_mortality": 0.05, "transient_read_rate": 0.2,
                    "power_loss_rate": 0.05, "cloud_outage_rate": 0.02},
        )
        faulted = run_fleet(plan)
        clean = run_fleet(_plan(shard_size=N_DEVICES, chunk=N_DEVICES))
        assert faulted.wear_values() != clean.wear_values()


class TestFailurePaths:
    """Partial fleets are flagged loudly, never silently under-counted."""

    def test_shard_timeout_keep_going_yields_flagged_partial(self, monkeypatch):
        """One shard hangs past the per-shard timeout: the run finishes
        with keep_going, and every surface of the result says a shard
        is missing -- ``complete`` False, devices under-counted by
        exactly one shard, and no exact wear vector on offer."""
        monkeypatch.setattr("repro.fleet.run.fleet_shard_point", _stall_middle_shard)
        fleet = run_fleet(
            _plan(), jobs=2, timeout_s=2.0, retries=0, keep_going=True
        )
        assert not fleet.ok
        assert fleet.devices == N_DEVICES - 10
        assert fleet.missing_devices == 10
        assert fleet.wear_values() is None  # partial vector never offered
        summary = fleet.summary()
        assert summary["complete"] is False
        assert summary["failed_shards"] == 1
        assert summary["missing_devices"] == 10
        assert summary["requested_devices"] == N_DEVICES
        # the statistics that *are* reported describe the completed 20
        assert summary["devices"] == 20
        assert summary["median"] is not None
        [error] = fleet.sweep.errors
        assert error.kind == "timeout"
        assert error.params["start"] == 10

    def test_every_shard_failing_keeps_summary_well_defined(self, monkeypatch):
        """An all-failed fleet reports None statistics, not a crash."""
        monkeypatch.setattr("repro.fleet.run.fleet_shard_point", _stall_always)
        fleet = run_fleet(
            _plan(), jobs=2, timeout_s=0.3, retries=0, keep_going=True
        )
        assert not fleet.ok
        assert fleet.devices == 0
        assert fleet.missing_devices == N_DEVICES
        summary = fleet.summary()
        assert summary["complete"] is False
        assert summary["failed_shards"] == fleet.plan.n_shards
        assert summary["median"] is None and summary["mean"] is None
        assert summary["worn_out_fraction"] is None

    def test_should_stop_cancels_the_fleet(self):
        from repro.runner import SweepCancelled

        with pytest.raises(SweepCancelled):
            run_fleet(_plan(), jobs=2, should_stop=lambda: True)

    def test_on_shard_progress_is_monotonic_and_complete(self):
        seen: list[tuple[int, int, int]] = []
        run_fleet(_plan(), on_shard=lambda *a: seen.append(a))
        assert [done for done, _, _ in seen] == [1, 2, 3]
        assert all(total == 3 for _, total, _ in seen)
        devices = [d for _, _, d in seen]
        assert devices == sorted(devices) and devices[-1] == N_DEVICES


def _stall_middle_shard(params: dict, seed: int) -> dict:
    """Module-level (worker-picklable) shard fn: hangs shard start=10."""
    if params["start"] == 10:
        import time

        time.sleep(30)
    return fleet_shard_point(params, seed)


def _finish_first_shard_last(params: dict, seed: int) -> dict:
    if params["start"] == 0:
        import time

        time.sleep(2)
    return fleet_shard_point(params, seed)


def _stall_always(params: dict, seed: int) -> dict:
    import time

    time.sleep(30)
    return fleet_shard_point(params, seed)


class TestPlanValidation:
    def test_grid_covers_population_exactly(self):
        grid = _plan(shard_size=7).shard_grid()
        assert [p["start"] for p in grid] == [0, 7, 14, 21, 28]
        assert sum(p["count"] for p in grid) == N_DEVICES
        assert grid[-1]["count"] == 2

    def test_mix_weights_order_preserved(self):
        plan = _plan(mix_weights=[("typical", 0.5), ("light", 0.5)])
        assert plan.mix_weights == (("typical", 0.5), ("light", 0.5))
        assert plan.shard_grid()[0]["mix_weights"] == [
            ["typical", 0.5], ["light", 0.5],
        ]

    def test_rejects_bad_geometry(self):
        for bad in (
            dict(n_devices=0), dict(days=0), dict(shard_size=0),
            dict(chunk=0), dict(capacity_gb=0.0), dict(exact_cap=-1),
        ):
            with pytest.raises(ValueError):
                _plan(**bad)

    def test_shard_keys_survive_growth_past_exact_cap(self):
        """Exactness is the plan's, not the shard's: a fleet that grows
        past ``exact_cap`` keeps every existing shard's cache key."""
        small = fleet_store_keys(_plan(n_devices=20, exact_cap=20))
        grown = fleet_store_keys(_plan(n_devices=30, exact_cap=20))
        assert grown[:2] == small

    def test_shard_size_defaults_to_chunk(self):
        plan = FleetPlan(n_devices=N_DEVICES, days=5, chunk=4)
        assert plan.shard_size == 4
        assert plan == FleetPlan(n_devices=N_DEVICES, days=5, chunk=4, shard_size=4)
        assert plan.shard_grid() == FleetPlan(
            n_devices=N_DEVICES, days=5, chunk=4, shard_size=4
        ).shard_grid()

    def test_wire_form_round_trips(self):
        """``to_params`` names every wire key, and ``from_params`` reads
        it back to the same plan; a plan with no fault names has none."""
        for plan in (
            FleetPlan(n_devices=3, days=2),
            _plan(faults={"power_loss_rate": 2.0}, exact_cap=1, build="sos"),
            _plan(fidelity="ftl", faults={}),
        ):
            params = plan.to_params()
            assert list(params) == [
                "devices", "days", "capacity_gb", "seed", "build",
                "shard_size", "chunk", "exact_cap", "faults", "fidelity",
            ]
            assert FleetPlan.from_params(params) == plan
        assert _plan(faults={}).faults is None

    def test_faults_canonicalized(self):
        plan = _plan(faults={"transient_read_rate": 1.0, "power_loss_rate": 2.0})
        assert plan.faults == (("power_loss_rate", 2.0), ("transient_read_rate", 1.0))
        assert plan.shard_grid()[0]["faults"] == {
            "power_loss_rate": 2.0, "transient_read_rate": 1.0,
        }

    @pytest.mark.parametrize(
        ("overrides", "match"),
        [
            (dict(build="nope"), "unknown build"),
            (dict(faults={"nope": 0.1}), "unknown fault"),
            (dict(faults={"power_loss_rate": -0.1}), "power_loss_rate"),
            (dict(seed=-1), "seed must be non-negative"),
            (dict(workload_seed_base=-1), "workload_seed_base"),
            (dict(mix_weights={"bogus": 1.0}), "unknown mix 'bogus'"),
            (dict(mix_weights={"light": 1.0, "bogus": 0.0}), "unknown mix 'bogus'"),
            (dict(mix_weights={"light": -1.0, "typical": 2.0}), "mix weights"),
            (dict(mix_weights={"light": 0.0}), "mix weights"),
            (dict(mix_weights={"light": 0.0, "typical": 0.0}), "mix weights"),
            (dict(mix_weights={"light": float("nan")}), "mix weights"),
            (dict(mix_weights={"light": float("inf"), "typical": 1.0}), "mix weights"),
        ],
        ids=["unknown-build", "unknown-fault", "negative-fault",
             "negative-seed", "negative-workload-seed-base", "unknown-mix",
             "unknown-zero-weight-mix", "negative-weight", "zero-weight",
             "all-zero-weights", "nan-weight", "infinite-weight"],
    )
    def test_rejects_what_no_shard_could_run(self, overrides, match):
        """The plan is the one validator: anything it accepts, every
        shard can run."""
        with pytest.raises(ValueError, match=match):
            _plan(**overrides)
