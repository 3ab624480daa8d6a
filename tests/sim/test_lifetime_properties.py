"""Property-based tests of the epoch engine's invariants.

They drive production partitions (:class:`repro.sim.batch.BatchPartition`,
one device) and devices (:class:`repro.sim.batch.BatchLifetimeDevice`).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ecc.policy import POLICIES, ProtectionLevel
from repro.flash.cell import CellTechnology, native_mode
from repro.sim.batch import BatchLifetimeDevice, BatchPartition
from repro.sim.lifetime import PartitionSpec

#: numpy warnings are bugs here: an invalid value (0/0) or an overflow
#: fails the test instead of being logged
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

write_days = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=8.0),   # new GB
        st.floats(min_value=0.0, max_value=8.0),   # churn GB
        st.floats(min_value=0.0, max_value=4.0),   # delete GB
    ),
    min_size=1,
    max_size=120,
)

#: scrub allowed on the one device
ALLOWED = np.ones(1, dtype=bool)


def make_partition(wear_leveling: bool, scrub: bool = False) -> BatchPartition:
    return BatchPartition(PartitionSpec(
        name="p",
        mode=native_mode(CellTechnology.PLC),
        protection=POLICIES[ProtectionLevel.NONE],
        capacity_gb=32.0,
        wear_leveling=wear_leveling,
        max_rber=4e-4,
        resuscitation_bits=(3, 1),
        scrub_enabled=scrub,
    ), 1)


def write(partition: BatchPartition, new_gb: float, churn_gb: float, now: float) -> None:
    partition.host_write(np.array([new_gb]), now, churn=False)
    partition.host_write(np.array([churn_gb]), now, churn=True)


def worst_rber(partition: BatchPartition, now: float) -> float:
    """Highest predicted RBER among live data-holding groups."""
    state = partition.export_state()
    holders = ~state["retired"][0] & (state["live_gb"][0] > 0.0)
    return float(partition._rber(now)[0][holders].max()) if holders.any() else 0.0


@given(days=write_days, wl=st.booleans())
@settings(max_examples=60, deadline=None)
def test_partition_invariants_hold_under_any_traffic(days, wl):
    """Capacity, live data, and wear invariants under arbitrary traffic."""
    partition = make_partition(wl)
    initial_capacity = partition.capacity_gb()[0]
    for i, (new_gb, churn_gb, delete_gb) in enumerate(days):
        now = i / 365.0
        write(partition, new_gb, churn_gb, now)
        partition.host_delete(np.array([delete_gb]))
        if i % 14 == 0:
            partition.maintain(now, ALLOWED)
        # invariants
        capacity = partition.capacity_gb()[0]
        live = partition.live_data_gb()[0]
        assert 0.0 <= capacity <= initial_capacity + 1e-9
        assert live <= capacity + 1e-9
        assert live >= -1e-9
        mean = partition.mean_pec()[0]
        assert mean >= 0.0
        state = partition.export_state()
        alive = ~state["retired"][0]
        if alive.any():
            assert state["pec"][0][alive].max() >= mean - 1e-9
    # group-level sanity: retired groups hold nothing
    state = partition.export_state()
    assert (state["live_gb"][state["retired"]] == 0.0).all()


@given(days=write_days)
@settings(max_examples=30, deadline=None)
def test_wear_is_monotone_without_scrub(days):
    """Without scrubbing, PEC never decreases."""
    partition = make_partition(wear_leveling=True, scrub=False)
    prev = 0.0
    for i, (new_gb, churn_gb, _delete) in enumerate(days):
        write(partition, new_gb, churn_gb, i / 365.0)
        current = partition.export_state()["pec"].sum()
        assert current >= prev - 1e-12
        prev = current


@given(
    new_gb=st.floats(min_value=0.1, max_value=5.0),
    days=st.integers(min_value=10, max_value=200),
)
@settings(max_examples=30, deadline=None)
def test_rber_monotone_in_time_for_idle_data(new_gb, days):
    """Data written once only gets worse as it ages."""
    partition = make_partition(wear_leveling=False)
    partition.host_write(np.array([new_gb]), 0.0, churn=False)
    values = [worst_rber(partition, now=d / 365.0) for d in range(0, days, 10)]
    assert values == sorted(values)


@given(days=write_days)
# a subnormal churn write splits into 0.0 shares; the empty groups' write
# times used to become 0/0 = NaN
@example(days=[(0.0, 5e-324, 0.0)])
@settings(max_examples=20, deadline=None)
def test_device_capacity_is_sum_of_partitions(days):
    device = BatchLifetimeDevice({
        spec.name: BatchPartition(spec, 1) for spec in (
            PartitionSpec(name="a", mode=native_mode(CellTechnology.PLC),
                          protection=POLICIES[ProtectionLevel.NONE], capacity_gb=16.0),
            PartitionSpec(name="b", mode=native_mode(CellTechnology.QLC),
                          protection=POLICIES[ProtectionLevel.STRONG], capacity_gb=48.0),
        )
    })
    none = np.zeros(1)
    for new_gb, churn_gb, _delete in days[:30]:
        device.step_day(
            {"a": (np.array([new_gb]), none), "b": (none, np.array([churn_gb]))},
            ALLOWED,
        )
        total = sum(p.capacity_gb()[0] for p in device.partitions.values())
        assert device.capacity_gb()[0] == total
        for partition in device.partitions.values():
            assert not np.isnan(partition.export_state()["write_time"]).any()
