"""A wear-leveled partition held as one lane per device, bit for bit.

A wear-leveled :class:`~repro.sim.batch.BatchPartition` starts
collapsed: one lane per device stands for all its groups, and it widens
to one lane per group before a group can diverge.  These tests pin that
the layout changes no bit.  The same builds run once from fresh
(collapsed) and once after an ``export_state`` -> ``import_state`` round
trip at day 0, which installs the state wide.  After every day both
export the same bytes, and every :class:`~repro.sim.batch.BatchEndState`
column is the same, under drawn volumes (zeros and subnormals included)
and through each path that widens a partition: a fault on one group,
the health check retiring and resuscitating groups, a scrub pass, and a
stack of collapsed rows with a wide one.

A reach test pins that a fleet's fault-free chunks end collapsed, so an
edit that silently loses the layout fails here and not only in a
benchmark.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sim.batch as batch
from repro.ecc.policy import POLICIES, ProtectionLevel
from repro.fleet.points import population_batch_observables
from repro.flash.cell import CellTechnology, native_mode
from repro.sim.baselines import ALL_BUILDERS, DeviceBuild
from repro.sim.batch import (
    BatchLifetimeDevice,
    BatchPartition,
    SummaryBatch,
    run_lifetime_batch,
)
from repro.sim.lifetime import PartitionSpec
from repro.workloads.mobile import MobileWorkload, WorkloadConfig

#: numpy warnings are bugs here: an invalid value (0/0) or an overflow
#: fails the test instead of being logged
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

N_DEVICES = 3
#: the native builds and SOS (SYS is wear-leveled, SPARE is not)
BUILDS = ("tlc_baseline", "qlc_baseline", "plc_naive", "sos")
END_COLUMNS = ("capacity_gb", "sys_wear_fraction", "spare_wear_fraction",
               "spare_quality", "sys_uncorrectable", "retired_groups",
               "resuscitated_groups")


def _ladder_build(capacity_gb: float, scrub: bool = False) -> DeviceBuild:
    """A wear-leveled PLC build whose failing groups step down a
    resuscitation ladder (no shipped build has both)."""
    spec = PartitionSpec(
        name="main",
        mode=native_mode(CellTechnology.PLC),
        protection=POLICIES[ProtectionLevel.STRONG],
        capacity_gb=capacity_gb,
        wear_leveling=True,
        resuscitation_bits=(4, 3),
        scrub_enabled=scrub,
    )
    device = BatchLifetimeDevice({"main": BatchPartition(spec, 1)})
    return DeviceBuild("plc_ladder", device, capacity_gb, 0.0)


def _builds(make, n: int = N_DEVICES) -> tuple[list, list]:
    """``n`` fresh builds, and ``n`` more holding the same state wide."""
    collapsed = [make() for _ in range(n)]
    wide = [make() for _ in range(n)]
    for build in wide:
        build.device.import_state(build.device.export_state())
    return collapsed, wide


def _wl_partitions(builds) -> list[BatchPartition]:
    return [
        partition
        for build in builds
        for partition in build.device.partitions.values()
        if partition.spec.wear_leveling
    ]


def _day(volumes: np.ndarray, day: int) -> SummaryBatch:
    """One day of an ``(n_devices, 4)`` array of media, other, overwrite
    and delete volumes."""
    return SummaryBatch(
        day=np.array([day]),
        new_media_gb=volumes[:, 0:1],
        new_other_gb=volumes[:, 1:2],
        overwrite_gb=volumes[:, 2:3],
        delete_gb=volumes[:, 3:4],
    )


def _assert_same_bits(a, b) -> None:
    """Equal dtype, shape and bytes: -0.0, NaN and 0.0 all told apart."""
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def _assert_same_state(collapsed, wide) -> None:
    for one, other in zip(collapsed, wide):
        mine, theirs = one.device.export_state(), other.device.export_state()
        assert mine["now_years"] == theirs["now_years"]
        for name, fields in mine["partitions"].items():
            for field, array in fields.items():
                try:
                    _assert_same_bits(array, theirs["partitions"][name][field])
                except AssertionError:
                    raise AssertionError(f"{name}.{field} differs") from None


def _assert_same_end(mine, theirs) -> None:
    assert (mine.day, mine.years, mine.faults) == (
        theirs.day, theirs.years, theirs.faults
    )
    for column in END_COLUMNS:
        try:
            _assert_same_bits(getattr(mine, column), getattr(theirs, column))
        except AssertionError:
            raise AssertionError(f"end state {column} differs") from None


def _run_both(collapsed, wide, days: np.ndarray, between=None) -> None:
    """Step both sets of builds a day at a time through ``days``, an
    ``(n_days, n_devices, 4)`` array, checking every day's state and end
    state; ``between(position, builds)`` runs on each set after a day."""
    for position, volumes in enumerate(days):
        ends = [run_lifetime_batch(builds, _day(volumes, position))
                for builds in (collapsed, wide)]
        _assert_same_end(*ends)
        if between is not None:
            for builds in (collapsed, wide):
                between(position, builds)
        _assert_same_state(collapsed, wide)


#: zero, subnormal and ordinary daily volumes (GB)
volumes = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308]),
    st.floats(min_value=0.0, max_value=12.0),
)
drawn_days = st.lists(
    st.lists(volumes, min_size=4 * N_DEVICES, max_size=4 * N_DEVICES),
    min_size=1, max_size=30,
).map(lambda days: np.array(days).reshape(len(days), N_DEVICES, 4))
#: a fault on one group of one device after some day, or none
faults = st.one_of(st.none(), st.tuples(
    st.integers(0, 29),
    st.integers(0, N_DEVICES - 1),
    st.integers(0, 19),
    st.sampled_from(["retire_group", "power_loss_rewrite"]),
))


@pytest.mark.parametrize("build", BUILDS)
@given(days=drawn_days, fault=faults)
@example(days=np.full((3, N_DEVICES, 4), 5e-324), fault=None)
@example(days=np.zeros((2, N_DEVICES, 4)), fault=(0, 1, 7, "retire_group"))
@settings(max_examples=15, deadline=None)
def test_collapsed_and_wide_lanes_step_alike(build, days, fault):
    """Drawn traffic, and a fault on one group after some day."""
    collapsed, wide = _builds(lambda: ALL_BUILDERS[build](4.0))
    wl_name = "sys" if build == "sos" else "main"
    assert all(p._collapsed for p in _wl_partitions(collapsed))
    assert not any(p._collapsed for p in _wl_partitions(wide))

    def hit(position, builds):
        if fault is None or fault[0] != position:
            return
        _, device, group, kind = fault
        partition = builds[device].device.partitions[wl_name]
        if kind == "retire_group":
            partition.retire_group(0, group)
        else:
            partition.power_loss_rewrite(0, group, builds[device].device.now_years)
        assert not partition._collapsed

    _run_both(collapsed, wide, days, between=hit)
    partitions = _wl_partitions(collapsed)
    diverged = (fault is not None and fault[0] < len(days)) or any(
        p.retired_count.any() or p.resuscitated_count.any() for p in partitions
    )
    # the fresh builds widened exactly when a group could diverge
    assert all(p._collapsed for p in partitions) == (not diverged)


def _mobile_days(n_days: int, mixes=("heavy", "adversarial", "typical")) -> np.ndarray:
    """``(n_days, len(mixes), 4)`` volumes of one seeded user per mix."""
    summary = SummaryBatch.from_volume_arrays([
        MobileWorkload(
            WorkloadConfig(mix=mix, days=n_days, seed=seed)
        ).daily_volume_arrays()
        for seed, mix in enumerate(mixes)
    ])
    return np.stack([summary.new_media_gb, summary.new_other_gb,
                     summary.overwrite_gb, summary.delete_gb], axis=-1
                    ).transpose(1, 0, 2)


@pytest.mark.parametrize("make, expect", [
    (lambda: ALL_BUILDERS["tlc_baseline"](2.0), {"retired"}),
    (lambda: ALL_BUILDERS["plc_naive"](8.0), {"retired"}),
    (lambda: _ladder_build(8.0), {"retired", "resuscitated"}),
    (lambda: _ladder_build(8.0, scrub=True), {"resuscitated", "refreshed"}),
], ids=["tlc", "plc_naive", "plc_ladder", "plc_ladder_scrubbed"])
def test_health_check_and_scrub_widen_in_place(make, expect):
    """Small devices over a long horizon: groups retire, resuscitate and
    are refreshed, and the collapsed partition widens on the first day
    one of these happens (a scrubbed one on its first scrub pass)."""
    collapsed, wide = _builds(make)
    widened, diverged = [], []

    def watch(position, builds):
        if builds is not collapsed:
            return
        partitions = _wl_partitions(builds)
        if not all(p._collapsed for p in partitions):
            widened.append(position)
        if any(p.retired_count.any() or p.resuscitated_count.any()
               for p in partitions):
            diverged.append(position)

    _run_both(collapsed, wide, _mobile_days(400), between=watch)
    assert widened[0] == (0 if "refreshed" in expect else diverged[0])
    seen = set()
    for build in collapsed:
        for partition in build.device.partitions.values():
            assert not partition._collapsed
            if partition.retired_count.any():
                seen.add("retired")
            if partition.resuscitated_count.any():
                seen.add("resuscitated")
            if partition.refresh_writes_gb.any():
                seen.add("refreshed")
    assert expect <= seen


@pytest.mark.parametrize("build", BUILDS)
def test_stack_joins_collapsed_rows_with_a_wide_row(build):
    """Collapsed rows beside a wide row stack wide, with the same bytes
    as an all-wide stack; all-collapsed rows stack collapsed."""
    make = lambda: ALL_BUILDERS[build](4.0)  # noqa: E731
    collapsed, wide = _builds(make)
    mixed = [collapsed[0], _builds(make, 1)[1][0], collapsed[2]]
    fresh = [make() for _ in range(N_DEVICES)]
    for name in wide[0].device.partitions:
        rows = [b.device.partitions[name] for b in fresh]
        stacked = BatchPartition.stack(rows)
        assert stacked._collapsed == rows[0].spec.wear_leveling
        joined = BatchPartition.stack([b.device.partitions[name] for b in mixed])
        assert not joined._collapsed
        reference = BatchPartition.stack([b.device.partitions[name] for b in wide])
        for field, array in reference.export_state().items():
            _assert_same_bits(joined.export_state()[field], array)
            _assert_same_bits(stacked.export_state()[field], array)
    _run_both(mixed, wide, _mobile_days(60))
    for builds in (mixed, wide):
        assert not any(p._collapsed for p in _wl_partitions(builds))


#: the fleet chunk of the reach test: four users on 64 GB devices
CHUNK = {
    "mixes": ["light", "typical", "heavy", "adversarial"],
    "workload_seeds": [1, 2, 3, 4],
    "capacity_gb": 64.0,
    "days": 90,
}


def _chunk_builds(build: str, **extra) -> list[DeviceBuild]:
    """The builds a population chunk ran, holding its devices' end rows."""
    ran: list[DeviceBuild] = []
    real = batch.run_lifetime_batch

    def spy(builds, *args):
        ran.extend(builds)
        return real(builds, *args)

    with mock.patch.object(batch, "run_lifetime_batch", spy):
        population_batch_observables({**CHUNK, "build": build, **extra})
    assert sum(b.device.n_devices for b in ran) == len(CHUNK["mixes"])
    return ran


@pytest.mark.parametrize("build", BUILDS)
def test_fleet_chunks_end_collapsed_without_faults(build):
    """A fault-free 90-day chunk never leaves the collapsed layout: the
    native builds and SOS's SYS end with one lane per device."""
    partitions = _wl_partitions(_chunk_builds(build))
    assert partitions
    assert all(p._collapsed for p in partitions)


@pytest.mark.parametrize("build", BUILDS)
def test_fleet_chunks_end_wide_with_faults(build):
    """The same chunk with a fault plan: faults hit single groups, so
    every wear-leveled partition ends wide."""
    faults = {"block_infant_mortality": 0.2, "power_loss_rate": 0.2}
    partitions = _wl_partitions(_chunk_builds(build, faults=faults))
    assert partitions
    assert not any(p._collapsed for p in partitions)

