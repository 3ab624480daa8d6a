"""Property-based tests of the epoch lifetime model's invariants."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ecc.policy import POLICIES, ProtectionLevel
from repro.flash.cell import CellTechnology, native_mode
from repro.sim.lifetime import LifetimeDevice, Partition, PartitionSpec

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


def make_partition(wear_leveling: bool, scrub: bool = False) -> Partition:
    return Partition(PartitionSpec(
        name="p",
        mode=native_mode(CellTechnology.PLC),
        protection=POLICIES[ProtectionLevel.NONE],
        capacity_gb=32.0,
        wear_leveling=wear_leveling,
        max_rber=4e-4,
        resuscitation_bits=(3, 1),
        scrub_enabled=scrub,
    ))


@given(days=write_days, wl=st.booleans())
@settings(max_examples=60, deadline=None)
def test_partition_invariants_hold_under_any_traffic(days, wl):
    """Capacity, live data, and wear invariants under arbitrary traffic."""
    partition = make_partition(wl)
    initial_capacity = partition.capacity_gb()
    prev_mean = 0.0
    for i, (new_gb, churn_gb, delete_gb) in enumerate(days):
        now = i / 365.0
        partition.host_write(new_gb, now, churn=False)
        partition.host_write(churn_gb, now, churn=True)
        partition.host_delete(delete_gb)
        if i % 14 == 0:
            partition.maintain(now)
        # invariants
        assert 0.0 <= partition.capacity_gb() <= initial_capacity + 1e-9
        assert partition.live_data_gb() <= partition.capacity_gb() + 1e-9
        assert partition.live_data_gb() >= -1e-9
        mean = partition.mean_pec()
        assert mean >= 0.0
        assert partition.max_pec() >= mean - 1e-9
        prev_mean = mean
    # group-level sanity: retired groups hold nothing
    for group in partition.groups:
        if group.retired:
            assert group.live_gb == 0.0


@given(days=write_days)
@settings(max_examples=30, deadline=None)
def test_wear_is_monotone_without_scrub(days):
    """Without scrubbing, PEC never decreases."""
    partition = make_partition(wear_leveling=True, scrub=False)
    prev = 0.0
    for i, (new_gb, churn_gb, _delete) in enumerate(days):
        partition.host_write(new_gb, i / 365.0, churn=False)
        partition.host_write(churn_gb, i / 365.0, churn=True)
        current = sum(g.pec for g in partition.groups)
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
    partition.host_write(new_gb, 0.0, churn=False)
    values = [partition.worst_group_rber(now=d / 365.0) for d in range(0, days, 10)]
    assert values == sorted(values)


@given(days=write_days)
# a subnormal churn write splits into 0.0 shares; the empty groups' write
# times used to become 0/0 = NaN
@example(days=[(0.0, 5e-324, 0.0)])
@settings(max_examples=20, deadline=None)
def test_device_capacity_is_sum_of_partitions(days):
    device = LifetimeDevice([
        PartitionSpec(name="a", mode=native_mode(CellTechnology.PLC),
                      protection=POLICIES[ProtectionLevel.NONE], capacity_gb=16.0),
        PartitionSpec(name="b", mode=native_mode(CellTechnology.QLC),
                      protection=POLICIES[ProtectionLevel.STRONG], capacity_gb=48.0),
    ])
    for new_gb, churn_gb, _delete in days[:30]:
        device.step_day({"a": (new_gb, 0.0), "b": (0.0, churn_gb)})
        total = sum(p.capacity_gb() for p in device.partitions.values())
        assert device.capacity_gb() == total
