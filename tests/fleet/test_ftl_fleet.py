"""FTL-fidelity fleets: the page-level replay behind the fleet engine.

``FleetPlan(fidelity="ftl")`` swaps the epoch lifetime model for the
page-mapped FTL replay inside every shard.  The fleet contracts must
survive the swap unchanged: bit-identical wear for any shard/chunk/jobs
geometry, per-device identity equal to a direct replay, and misuse
rejected up front.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fleet import FleetPlan, assign_mixes, run_fleet
from repro.ftl.replay import FtlReplayConfig, replay

N_DEVICES = 10
DAYS = 30


def _plan(**overrides) -> FleetPlan:
    defaults = dict(
        n_devices=N_DEVICES, days=DAYS, capacity_gb=64.0, seed=606,
        shard_size=5, chunk=5, fidelity="ftl",
    )
    defaults.update(overrides)
    return FleetPlan(**defaults)


@pytest.fixture(scope="module")
def golden_wear():
    fleet = run_fleet(_plan(shard_size=N_DEVICES, chunk=N_DEVICES))
    return np.asarray(fleet.wear_values())


class TestGeometryInvariance:
    @pytest.mark.parametrize(
        ("shard_size", "chunk"),
        [(5, 5), (3, 2), (N_DEVICES, 3), (1, 1)],
        ids=["aligned", "ragged", "one-shard", "device-per-shard"],
    )
    def test_bit_identical_across_geometries(self, golden_wear, shard_size,
                                             chunk):
        fleet = run_fleet(_plan(shard_size=shard_size, chunk=chunk))
        assert np.array_equal(np.asarray(fleet.wear_values()), golden_wear)

    def test_serial_equals_parallel(self, golden_wear):
        fleet = run_fleet(_plan(shard_size=3, chunk=3), jobs=2)
        assert np.array_equal(np.asarray(fleet.wear_values()), golden_wear)


def test_devices_are_direct_ftl_replays(golden_wear):
    """Fleet device u == replay(mix(u), workload_seed_base + u)."""
    plan = _plan()
    mixes = assign_mixes(plan.seed, dict(plan.mix_weights), 0, N_DEVICES)
    for u in (0, 4, 9):
        direct = replay(
            FtlReplayConfig(mix=mixes[u], days=DAYS, capacity_gb=64.0,
                            seed=plan.workload_seed_base + u)
        )
        assert golden_wear[u] == direct.mean_wear


def test_ftl_fidelity_changes_the_answer():
    """The bridge must actually switch models, not silently fall back."""
    ftl_fleet = run_fleet(_plan())
    epoch_fleet = run_fleet(_plan(fidelity="epoch"))
    assert not np.array_equal(
        np.asarray(ftl_fleet.wear_values()),
        np.asarray(epoch_fleet.wear_values()),
    )


class TestPlanField:
    def test_ftl_shard_params_carry_the_key(self):
        for params in _plan().shard_grid():
            assert params["fidelity"] == "ftl"

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="fidelity"):
            FleetPlan(n_devices=4, days=10, fidelity="quantum")

    def test_faults_are_epoch_only(self):
        with pytest.raises(ValueError, match="epoch"):
            FleetPlan(n_devices=4, days=10, fidelity="ftl",
                      faults={"flaky": 0.5})

    def test_builds_other_than_native_tlc_rejected(self):
        """The replay chip is native TLC: an FTL plan naming another
        build would replay TLC devices and report them under that name."""
        for build in ("sos", "qlc_baseline", "plc_naive"):
            with pytest.raises(ValueError, match="tlc_baseline"):
                FleetPlan(n_devices=4, days=10, fidelity="ftl", build=build)
