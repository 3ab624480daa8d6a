"""SHA-256 pins of the epoch engine's day step on edge traffic.

Each build -- the four shipped ones and a wear-leveled PLC build whose
scrubbed groups step down a resuscitation ladder -- runs three devices
through a fixed list of edge days: nothing at all, subnormal volumes,
one device idle beside two that write, a day that pushes utilization
past the 0.85 delete threshold, a delete larger than the live data,
writes that overfill the device, and a stretch heavy enough that
groups retire and resuscitate, followed by the edge days again on the
worn state.  Every day's :meth:`~repro.sim.batch.BatchLifetimeDevice.export_state`
and :class:`~repro.sim.batch.BatchEndState` columns, and those of one
run over all the days, hash into one SHA-256 per build.

Each build starts once collapsed (fresh) and once wide (an
``export_state`` -> ``import_state`` round trip), and both starts must
give the build's one pin.  The population pins cover mobile traffic
only, and the collapsed-lanes suite compares the engine with itself;
these pins hold every byte of the day step on the days that take its
masked and edge paths.
"""

from __future__ import annotations

import hashlib
from unittest import mock

import numpy as np
import pytest

from repro.ecc.policy import POLICIES, ProtectionLevel
from repro.flash.cell import CellTechnology, native_mode
from repro.sim.baselines import ALL_BUILDERS, DeviceBuild
from repro.sim.batch import (
    BatchEndState,
    BatchLifetimeDevice,
    BatchPartition,
    SummaryBatch,
    run_lifetime_batch,
)
from repro.sim.lifetime import PartitionSpec

#: numpy warnings are bugs here: an invalid value (0/0) or an overflow
#: fails the test instead of being logged
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

N_DEVICES = 3
CAPACITY_GB = 1.0
TINY = 5e-324  # the smallest subnormal


def _ladder_build() -> DeviceBuild:
    """A wear-leveled, scrubbed PLC build whose failing groups step down
    a resuscitation ladder (no shipped build has all three)."""
    spec = PartitionSpec(
        name="main",
        mode=native_mode(CellTechnology.PLC),
        protection=POLICIES[ProtectionLevel.STRONG],
        capacity_gb=CAPACITY_GB,
        wear_leveling=True,
        resuscitation_bits=(4, 3),
        scrub_enabled=True,
    )
    device = BatchLifetimeDevice({"main": BatchPartition(spec, 1)})
    return DeviceBuild("plc_ladder", device, CAPACITY_GB, 0.0)


BUILDS = {
    **{name: (lambda name=name: ALL_BUILDERS[name](CAPACITY_GB))
       for name in ALL_BUILDERS},
    "plc_ladder_scrubbed": _ladder_build,
}


def _same(row: list[float]) -> list[list[float]]:
    return [row] * N_DEVICES


#: one device's day is [new media, new other, overwrite, delete] GB
EDGE_DAYS = [
    _same([0.0, 0.0, 0.0, 0.0]),
    _same([TINY, TINY, TINY, TINY]),
    [[0.0, 0.0, 0.0, 0.0], [0.2, 0.1, 0.05, 0.0], [0.1, 0.2, 0.1, 0.01]],
    _same([0.5, 0.45, 0.1, 0.05]),  # utilization past 0.85
    _same([0.0, 0.0, 0.0, 50.0]),  # a delete larger than live data
    _same([2.0, 2.0, 1.0, 0.1]),  # overfills capacity
    [[TINY, TINY, 0.0, 0.0], [1e-310, 0.3, TINY, TINY], [0.4, 0.0, 0.2, TINY]],
]
#: heavy, medium and light wear, so groups retire and resuscitate on
#: different days per device
WEAR_DAY = [[3.0, 3.0, 1.0, 0.2], [1.5, 1.5, 0.5, 0.1], [0.3, 0.3, 0.1, 0.02]]
DAYS = np.array(EDGE_DAYS + [WEAR_DAY] * 30 + EDGE_DAYS)

#: build -> SHA-256 of every day's state and end state, and the one-run
#: end state
PINS = {
    "tlc_baseline":
        "b65639e6a69893a7960b9fbe2ffc64d1a6b3d8e0d7257f99658ad19e2ccd2456",
    "qlc_baseline":
        "e88512c0f6f90604d733f31754b2311686c2e769488e47c942679990b10b43b0",
    "plc_naive":
        "1c61117b263484c8473e2a08f0ad5221c7b6809b36fcd0f2467608005b46beba",
    "sos":
        "15e2019897f5ca9f52423d2283790065adf86f94874c0541903f538a946b9939",
    "plc_ladder_scrubbed":
        "ab6a5448a3757da029a66112298ccc535ea4411b140253a57f8a6798e2b32818",
}

END_COLUMNS = ("capacity_gb", "sys_wear_fraction", "spare_wear_fraction",
               "spare_quality", "sys_uncorrectable", "retired_groups",
               "resuscitated_groups")


def _summary(days: np.ndarray, first: int) -> SummaryBatch:
    """An ``(n_days, n_devices, 4)`` block as the engine's input."""
    columns = days.transpose(1, 0, 2)
    return SummaryBatch(
        day=np.arange(first, first + len(days)),
        new_media_gb=columns[:, :, 0].copy(),
        new_other_gb=columns[:, :, 1].copy(),
        overwrite_gb=columns[:, :, 2].copy(),
        delete_gb=columns[:, :, 3].copy(),
    )


def _builds(build: str, start: str) -> list[DeviceBuild]:
    builds = [BUILDS[build]() for _ in range(N_DEVICES)]
    if start == "wide":
        for b in builds:
            b.device.import_state(b.device.export_state())
    return builds


def _hash_array(digest, label: str, array) -> None:
    array = np.ascontiguousarray(array)
    digest.update(f"{label}:{array.dtype.str}:{array.shape}".encode())
    digest.update(array.tobytes())


def _hash_state(digest, builds: list[DeviceBuild]) -> None:
    for build in builds:
        state = build.device.export_state()
        digest.update(float(state["now_years"]).hex().encode())
        for name, fields in state["partitions"].items():
            for field, array in fields.items():
                _hash_array(digest, f"{name}.{field}", array)


def _hash_end(digest, end: BatchEndState) -> None:
    digest.update(f"{end.day}:{float(end.years).hex()}:{end.faults}".encode())
    for column in END_COLUMNS:
        _hash_array(digest, column, getattr(end, column))


def _digest(build: str, start: str) -> str:
    digest = hashlib.sha256()
    stepped = _builds(build, start)
    for position in range(len(DAYS)):
        end = run_lifetime_batch(stepped, _summary(DAYS[position:position + 1],
                                                   position))
        _hash_end(digest, end)
        _hash_state(digest, stepped)
    whole = _builds(build, start)
    _hash_end(digest, run_lifetime_batch(whole, _summary(DAYS, 0)))
    _hash_state(digest, whole)
    return digest.hexdigest()


def test_the_days_reach_every_edge_path():
    """The wear stretch retires and resuscitates groups on some devices
    only, a scrub refreshes, a partition stays collapsed to the end, and
    pressured partitions delete live data."""
    seen = set()
    real = BatchPartition._delete

    def deleting(partition, gb, total):
        if (gb > 0.0).any():
            seen.add("deleted")
        return real(partition, gb, total)

    for build in BUILDS:
        builds = _builds(build, "collapsed")
        with mock.patch.object(BatchPartition, "_delete", deleting):
            end = run_lifetime_batch(builds, _summary(DAYS, 0))
        if end.retired_groups.any():
            seen.add("retired")
        if end.resuscitated_groups.any():
            seen.add("resuscitated")
        if len(set(end.retired_groups.tolist())) > 1:
            seen.add("retired on some devices only")
        for b in builds:
            for partition in b.device.partitions.values():
                if partition.refresh_writes_gb.any():
                    seen.add("refreshed")
                if partition._collapsed:
                    seen.add("collapsed to the end")
    assert seen == {"retired", "resuscitated", "retired on some devices only",
                    "refreshed", "collapsed to the end", "deleted"}


@pytest.mark.parametrize("start", ["collapsed", "wide"])
@pytest.mark.parametrize("build", sorted(BUILDS))
def test_day_step_bytes_are_pinned(build, start):
    assert _digest(build, start) == PINS[build]
