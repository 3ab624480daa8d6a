"""One build of N device rows runs as N one-row builds, bit for bit.

A fleet chunk runs one :meth:`~repro.sim.baselines.DeviceBuild.for_devices`
build through :func:`~repro.sim.batch.run_lifetime_batch` instead of N
one-row builds stacked.  Devices are independent rows, so the two give
the same end state and hand back the same rows, with and without fault
plans, on devices that stay collapsed and on devices whose groups
retire and resuscitate.  The engine counts rows, not builds: volumes
and fault plans come one per row.  A chunk's per-mix volume blocks
stack into device order (:meth:`~repro.sim.batch.SummaryBatch.from_volume_arrays`
with ``rows``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.plan import plan_for_build
from repro.sim.baselines import ALL_BUILDERS, build_tlc_baseline
from repro.sim.batch import BatchEndState, SummaryBatch, run_lifetime_batch
from repro.workloads.mobile import MobileWorkload, WorkloadConfig

#: numpy warnings are bugs here, as in the other engine tests
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

MIXES = ("typical", "heavy", "adversarial")
SEEDS = (11, 12, 13)
FAULTS = {"block_infant_mortality": 0.05, "transient_read_rate": 0.2,
          "power_loss_rate": 0.05, "cloud_outage_rate": 0.02}
#: (capacity GB, days): a fleet device that stays collapsed, and a small
#: one whose heavier users' groups retire (and SPARE's resuscitate)
CASES = {"fleet": (64.0, 90), "worn": (4.0, 200)}
ARRAY_FIELDS = ("capacity_gb", "sys_wear_fraction", "spare_wear_fraction",
                "spare_quality", "sys_uncorrectable", "retired_groups",
                "resuscitated_groups")
VOLUME_FIELDS = ("new_media_gb", "new_other_gb", "overwrite_gb", "delete_gb")


def _volumes(days: int, mixes=MIXES, seeds=SEEDS) -> list[dict]:
    return [
        MobileWorkload(WorkloadConfig(mix=mix, days=days, seed=seed)).daily_volume_arrays()
        for mix, seed in zip(mixes, seeds)
    ]


def _assert_same_end(end: BatchEndState, expected: BatchEndState) -> None:
    assert (end.day, end.years) == (expected.day, expected.years)
    for name in ARRAY_FIELDS:
        array, other = getattr(end, name), getattr(expected, name)
        assert array.dtype == other.dtype, name
        assert array.tobytes() == other.tobytes(), name
    assert [f and f.as_dict() for f in end.faults] == \
        [f and f.as_dict() for f in expected.faults]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("faults", [None, FAULTS], ids=["plain", "faults"])
@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_an_n_row_build_runs_as_n_one_row_builds(build, faults, case):
    capacity, days = CASES[case]
    make = ALL_BUILDERS[build]
    summaries = SummaryBatch.from_volume_arrays(_volumes(days))
    singles = [make(capacity) for _ in SEEDS]
    rows = make(capacity).for_devices(len(SEEDS))
    assert rows.device.n_devices == len(SEEDS)

    def plans(builds):
        if faults is None:
            return None
        return [plan_for_build(b, faults, days, s) for b, s in zip(builds, SEEDS)]

    expected = run_lifetime_batch(singles, summaries, plans(singles))
    end = run_lifetime_batch([rows], summaries, plans([rows] * len(SEEDS)))
    _assert_same_end(end, expected)

    # the build holds the rows the one-row builds hold, stacked
    state = rows.device.export_state()
    assert state["now_years"] == singles[0].device.now_years
    for name, fields in state["partitions"].items():
        for field, array in fields.items():
            stacked = np.concatenate([
                s.device.export_state()["partitions"][name][field] for s in singles
            ])
            assert array.dtype == stacked.dtype, (name, field)
            assert array.tobytes() == stacked.tobytes(), (name, field)


def test_the_engine_takes_one_volume_row_and_plan_per_device_row():
    build = build_tlc_baseline(64.0).for_devices(3)
    three = SummaryBatch.from_volume_arrays(_volumes(30))
    with pytest.raises(ValueError, match="3 device rows but volumes for 2"):
        run_lifetime_batch([build], SummaryBatch.from_volume_arrays(_volumes(30)[:2]))
    with pytest.raises(ValueError, match="3 device rows but 1 fault plans"):
        run_lifetime_batch([build], three, [None])
    with pytest.raises(ValueError, match="4 device rows but volumes for 3"):
        run_lifetime_batch([build, build_tlc_baseline(64.0)], three)
    # the rows of several builds add up
    run_lifetime_batch([build_tlc_baseline(64.0).for_devices(2),
                        build_tlc_baseline(64.0)], three, [None] * 3)


def test_mix_blocks_stack_into_device_order():
    mixes = ("heavy", "light", "heavy", "typical", "light", "heavy")
    seeds = (5, 6, 7, 8, 9, 10)
    per_device = SummaryBatch.from_volume_arrays(_volumes(20, mixes, seeds))
    rows = {mix: [d for d, m in enumerate(mixes) if m == mix] for mix in mixes}
    blocks = [
        MobileWorkload(
            WorkloadConfig(mix=mix, days=20), seeds=[seeds[d] for d in devices]
        ).daily_volume_arrays()
        for mix, devices in rows.items()
    ]
    stacked = SummaryBatch.from_volume_arrays(blocks, list(rows.values()))
    assert stacked.day.tobytes() == per_device.day.tobytes()
    for name in VOLUME_FIELDS:
        assert getattr(stacked, name).tobytes() == getattr(per_device, name).tobytes()
    # without rows, blocks fill the rows in order
    in_order = SummaryBatch.from_volume_arrays(blocks)
    order = [d for devices in rows.values() for d in devices]
    assert in_order.new_media_gb.tobytes() == per_device.new_media_gb[order].tobytes()


@pytest.mark.parametrize("rows", [
    pytest.param([[0, 2, 5], [1, 4], [3, 3]], id="a row twice"),
    pytest.param([[0, 2, 5], [1, 4], [6]], id="a row missing"),
    pytest.param([[0, 2], [1, 4, 5], [3]], id="a block's size"),
    pytest.param([[0, 2, 5], [1, 3, 4]], id="a block unplaced"),
])
def test_stacking_refuses_rows_that_do_not_cover_the_batch(rows):
    blocks = [
        MobileWorkload(WorkloadConfig(mix=mix, days=5), seeds=range(n)).daily_volume_arrays()
        for mix, n in (("heavy", 3), ("light", 2), ("typical", 1))
    ]
    with pytest.raises(ValueError, match="every row once"):
        SummaryBatch.from_volume_arrays(blocks, rows)


def test_stacking_refuses_volumes_that_are_not_rows_of_days():
    volumes = _volumes(10)
    with pytest.raises(ValueError, match="same day sequence"):
        SummaryBatch.from_volume_arrays([volumes[0], _volumes(11)[1]])
    cut = {**volumes[0], "delete_gb": volumes[0]["delete_gb"][:9]}
    with pytest.raises(ValueError, match=r"\(days,\) arrays"):
        SummaryBatch.from_volume_arrays([cut])
