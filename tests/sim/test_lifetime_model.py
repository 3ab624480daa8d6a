"""Epoch lifetime model: wear accounting, maintenance, WL policies.

Each test drives a one-device production partition
(``BatchPartition(spec, 1)``) and stages block-group state through
``export_state``/``import_state``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ecc.policy import POLICIES, ProtectionLevel
from repro.flash.cell import CellTechnology, native_mode
from repro.flash.error_model import ErrorModel, cached_error_model
from repro.flash.reliability import endurance_pec
from repro.sim.batch import BatchLifetimeDevice, BatchPartition
from repro.sim.lifetime import PartitionSpec

#: scrub allowed on the one device
ALLOWED = np.ones(1, dtype=bool)


def make_spec(**overrides) -> PartitionSpec:
    defaults = dict(
        name="main",
        mode=native_mode(CellTechnology.PLC),
        protection=POLICIES[ProtectionLevel.STRONG],
        capacity_gb=64.0,
        wear_leveling=True,
    )
    defaults.update(overrides)
    return PartitionSpec(**defaults)


def make_partition(**overrides) -> BatchPartition:
    return BatchPartition(make_spec(**overrides), 1)


def write(partition: BatchPartition, gb: float, now: float, churn: bool) -> None:
    partition.host_write(np.array([gb]), now, churn=churn)


def groups(partition: BatchPartition, field: str) -> np.ndarray:
    """One per-group state field of the partition's device."""
    return partition.export_state()[field][0]


def stage(partition: BatchPartition, field: str, index, value) -> None:
    """Set one per-group field on some groups, through ``import_state``."""
    state = partition.export_state()
    state[field][0, index] = value
    partition.import_state(state)


def live_pecs(partition: BatchPartition) -> np.ndarray:
    return groups(partition, "pec")[~groups(partition, "retired")]


def worst_rber(partition: BatchPartition, now: float) -> float:
    holders = ~groups(partition, "retired") & (groups(partition, "live_gb") > 0)
    return float(partition._rber(now)[0][holders].max())


class TestWearAccounting:
    def test_writes_raise_mean_pec_by_waf_over_capacity(self):
        partition = make_partition(waf=2.0, wear_leveling=True)
        write(partition, 64.0, now=0.1, churn=False)  # one full device write
        # WL adds 10% overhead: 64 GB * 2.0 * 1.1 / 64 GB = 2.2 cycles
        assert partition.mean_pec()[0] == pytest.approx(2.2, rel=1e-6)

    def test_wl_spreads_wear_evenly(self):
        partition = make_partition(wear_leveling=True)
        for day in range(50):
            write(partition, 5.0, now=day / 365, churn=True)
        pecs = live_pecs(partition)
        assert max(pecs) - min(pecs) < 1e-9

    def test_no_wl_concentrates_churn_on_hot_groups(self):
        partition = make_partition(wear_leveling=False)
        for day in range(50):
            write(partition, 5.0, now=day / 365, churn=True)
        pecs = sorted(live_pecs(partition))
        assert pecs[-1] > 10 * (pecs[0] + 1e-12)

    def test_no_wl_total_wear_is_lower(self):
        """Disabling WL avoids the leveling write overhead (§4.3)."""
        wl = make_partition(wear_leveling=True)
        nowl = make_partition(wear_leveling=False)
        for day in range(50):
            write(wl, 5.0, now=day / 365, churn=True)
            write(nowl, 5.0, now=day / 365, churn=True)
        total_wl = (groups(wl, "pec") * groups(wl, "capacity_gb")).sum()
        total_nowl = (groups(nowl, "pec") * groups(nowl, "capacity_gb")).sum()
        assert total_nowl < total_wl

    def test_wear_used_fraction(self):
        partition = make_partition(waf=1.0, wear_leveling=False)
        rated = endurance_pec(native_mode(CellTechnology.PLC))
        # new-data appends round robin: each group gets equal share
        for _ in range(20):
            write(partition, 64.0 / 20, now=0.0, churn=False)
        assert partition.wear_used_fraction()[0] == pytest.approx(1.0 / rated, rel=0.01)


class TestDataAging:
    def test_unwritten_group_has_zero_age(self):
        partition = make_partition()
        # an empty group's RBER is that of fresh data, however late
        assert np.array_equal(partition._rber(5.0), partition._rber(0.0))

    def test_age_advances_without_writes(self):
        partition = make_partition(wear_leveling=False)
        write(partition, 3.0, now=0.0, churn=False)
        holder = int(np.flatnonzero(groups(partition, "live_gb") > 0)[0])
        assert groups(partition, "write_time")[holder] == 0.0
        model = cached_error_model(partition.spec.mode)
        pec = groups(partition, "pec")[holder]
        assert partition._rber(2.0)[0, holder] == pytest.approx(
            model.rber(pec=pec, years_since_write=2.0), rel=1e-12
        )

    def test_new_writes_blend_age_down(self):
        partition = make_partition(wear_leveling=False, n_groups=1)
        write(partition, 3.0, now=0.0, churn=False)
        write(partition, 3.0, now=2.0, churn=False)
        age = 2.0 - groups(partition, "write_time")[0]
        assert 0.0 < age < 2.0

    def test_rber_grows_with_group_age(self):
        partition = make_partition(wear_leveling=False)
        write(partition, 3.0, now=0.0, churn=False)
        early = worst_rber(partition, now=0.1)
        late = worst_rber(partition, now=2.0)
        assert late > early


class TestMaintenance:
    def test_scrub_refreshes_endangered_groups(self):
        partition = make_partition(
            protection=POLICIES[ProtectionLevel.NONE],
            scrub_enabled=True,
            scrub_quality_floor=0.95,
            wear_leveling=False,
            max_rber=1.0,  # disable retirement for this test
        )
        write(partition, 10.0, now=0.0, churn=False)
        # age until the quality forecast violates the floor
        partition.maintain(now=3.0, scrub_allowed=ALLOWED)
        refreshed = groups(partition, "refreshes") > 0
        assert refreshed.any()
        assert partition.refresh_writes_gb[0] > 0
        # refreshed data is fresh again
        assert (groups(partition, "write_time")[refreshed] == 3.0).all()

    def test_health_check_retires_hopeless_groups(self):
        partition = make_partition(max_rber=4e-4, resuscitation_bits=())
        stage(partition, "pec", slice(0, 3), 1e6)
        partition.maintain(now=1.0, scrub_allowed=ALLOWED)
        assert partition.retired_count[0] == 3
        assert partition.capacity_gb()[0] == pytest.approx(64.0 * 17 / 20)

    def test_health_check_resuscitates_with_ladder(self):
        """§4.3: worn PLC groups drop to pseudo-TLC, shrinking capacity
        by 2/5 instead of retiring outright."""
        partition = make_partition(max_rber=4e-4, resuscitation_bits=(3, 1))
        worn = ErrorModel(native_mode(CellTechnology.PLC)).pec_for_rber(4e-4, 1.0) + 30
        stage(partition, "pec", 0, worn)
        partition.maintain(now=1.0, scrub_allowed=ALLOWED)
        assert partition.resuscitated_count[0] == 1
        assert groups(partition, "mode_bits")[0] == 3
        assert groups(partition, "capacity_gb")[0] == pytest.approx(64.0 / 20 * 3 / 5)

    def test_delete_shrinks_live_data(self):
        partition = make_partition()
        write(partition, 10.0, now=0.0, churn=False)
        partition.host_delete(np.array([4.0]))
        assert partition.live_data_gb()[0] == pytest.approx(6.0)


class TestDevice:
    def test_step_day_advances_time(self):
        device = BatchLifetimeDevice({"main": make_partition()})
        device.step_day({"main": (np.array([1.0]), np.array([0.5]))}, ALLOWED)
        assert device.now_years == pytest.approx(1 / 365)

    def test_empty_partition_list_rejected(self):
        with pytest.raises(ValueError):
            BatchLifetimeDevice({})

    def test_multi_partition_routing(self):
        device = BatchLifetimeDevice({
            "sys": make_partition(name="sys", capacity_gb=32.0),
            "spare": make_partition(name="spare", capacity_gb=32.0, wear_leveling=False),
        })
        device.step_day(
            {"sys": (np.array([2.0]), np.array([1.0])),
             "spare": (np.array([1.0]), np.array([0.0]))},
            ALLOWED,
        )
        assert device.partitions["sys"].mean_pec()[0] > 0
        assert device.partitions["spare"].mean_pec()[0] > 0
