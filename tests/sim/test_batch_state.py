"""Whole-shard state export/import, stacking and scattering on the
epoch engine.

The fleet layer checkpoints shards as stacked arrays; these tests pin
that the roundtrip is lossless (continuing from imported state is
bit-identical to never exporting), that the tightened integer lanes
(int32 refreshes, int8 mode indexes) survive, that builds' one-row
devices stack into a batch and scatter back row for row, and that
malformed state is rejected instead of silently reshaped.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro.sim.baselines import build_sos, build_tlc_baseline
from repro.sim.batch import (
    _ROW_STATE,
    BatchLifetimeDevice,
    BatchPartition,
    SummaryBatch,
    run_lifetime_batch,
)
from repro.workloads.mobile import MobileWorkload, WorkloadConfig

N = 4


def _batch(builder=build_tlc_baseline, n=N):
    return BatchLifetimeDevice.from_devices(
        [builder(32.0).device for _ in range(n)]
    )


def _step_days(batch, days, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(days):
        writes = {
            name: (rng.random(batch.n_devices) * 3.0,
                   rng.random(batch.n_devices) * 1.5)
            for name in batch.partitions
        }
        batch.step_day(writes, np.ones(batch.n_devices, dtype=bool))


@pytest.mark.parametrize("builder", [build_tlc_baseline, build_sos],
                         ids=["tlc", "sos"])
def test_roundtrip_is_lossless(builder):
    batch = _batch(builder)
    _step_days(batch, 45)
    state = batch.export_state()

    fresh = _batch(builder)
    fresh.import_state(state)
    for name, partition in batch.partitions.items():
        for field, array in partition.export_state().items():
            assert np.array_equal(
                fresh.partitions[name].export_state()[field], array
            ), (name, field)
    assert fresh.now_years == batch.now_years

    # continuing from imported state is bit-identical to never exporting
    _step_days(batch, 30, seed=1)
    _step_days(fresh, 30, seed=1)
    assert np.array_equal(batch.capacity_gb(), fresh.capacity_gb())
    for name, partition in batch.partitions.items():
        other = fresh.partitions[name]
        assert np.array_equal(partition.wear_used_fraction(),
                              other.wear_used_fraction())
        assert np.array_equal(partition.mean_quality(batch.now_years),
                              other.mean_quality(fresh.now_years))


def test_export_does_not_alias_live_state():
    batch = _batch()
    _step_days(batch, 5)
    state = batch.export_state()
    before = {
        name: {k: v.copy() for k, v in part.items()}
        for name, part in state["partitions"].items()
    }
    _step_days(batch, 5, seed=2)
    for name, part in batch.export_state()["partitions"].items():
        assert not np.array_equal(part["pec"], before[name]["pec"])
    for name, part in state["partitions"].items():
        assert np.array_equal(part["pec"], before[name]["pec"])


def test_integer_lanes_stay_tight():
    batch = _batch()
    _step_days(batch, 20)
    for partition in batch.partitions.values():
        assert partition._refreshes.dtype == np.int32
        assert partition._mode_idx.dtype == np.int8
    state = batch.export_state()
    fresh = _batch()
    fresh.import_state(state)
    for partition in fresh.partitions.values():
        assert partition._refreshes.dtype == np.int32
        assert partition._mode_idx.dtype == np.int8


def test_import_rejects_wrong_shapes():
    batch = _batch()
    state = batch.export_state()
    name = next(iter(state["partitions"]))
    bad = dict(state["partitions"][name])
    bad["pec"] = bad["pec"][:-1]
    with pytest.raises(ValueError, match="shape"):
        batch.partitions[name].import_state(bad)


def test_import_rejects_unknown_mode_bits():
    """No mode has 0 bits; -1 must not wrap to the ladder's last slot."""
    batch = _batch()
    state = batch.export_state()
    name = next(iter(state["partitions"]))
    for bits in (0, -1):
        bad = dict(state["partitions"][name])
        bad["mode_bits"] = np.full_like(bad["mode_bits"], bits)
        with pytest.raises(ValueError, match="resuscitation ladder"):
            batch.partitions[name].import_state(bad)


def test_device_import_rejects_mismatched_partitions():
    batch = _batch()
    state = batch.export_state()
    state["partitions"] = {"nope": next(iter(state["partitions"].values()))}
    with pytest.raises(ValueError, match="partitions"):
        batch.import_state(state)



def _with_waf(device, waf):
    """A fresh device whose partitions run at ``waf`` (the A6 sweep axis)."""
    for name, partition in device.partitions.items():
        device.partitions[name] = BatchPartition(
            dataclasses.replace(partition.spec, waf=waf), 1
        )
    return device


def test_stack_and_scatter_round_trip_rows():
    """Builds' one-row devices stack into one batch, each row keeping its
    own WAF and modes, and ``scatter_to`` hands every row back unchanged."""
    devices = [
        _with_waf(build_sos(32.0).device, 1.5),
        build_sos(32.0).device,
        _with_waf(build_sos(32.0).device, 3.5),
    ]
    _step_days(devices[1], 40)
    spare = devices[1].partitions["spare"]
    state = spare.export_state()
    state["mode_bits"][0, 4] = 3  # one resuscitated group
    spare.import_state(state)
    rows = [
        {name: p.export_state() for name, p in device.partitions.items()}
        for device in devices
    ]
    batch = BatchLifetimeDevice.from_devices(devices)
    assert batch.n_devices == 3
    assert batch.partitions["spare"]._heterogeneous
    for name, partition in batch.partitions.items():
        assert list(partition.export_state()["waf"]) == [1.5, 2.5, 3.5]
        for field, array in partition.export_state().items():
            expected = np.concatenate([row[name][field] for row in rows])
            assert np.array_equal(array, expected), (name, field)
    fresh = [build_sos(32.0).device for _ in range(3)]
    for name, partition in batch.partitions.items():
        partition.scatter_to([device.partitions[name] for device in fresh])
    for device, row in zip(fresh, rows):
        for name, partition in device.partitions.items():
            assert partition.n_devices == 1
            for field, array in partition.export_state().items():
                assert np.array_equal(array, row[name][field]), (name, field)
    assert [d.partitions["spare"]._heterogeneous for d in fresh] == [False, True, False]


def test_stack_rejects_mismatched_specs():
    parts = [build_sos(32.0).device.partitions["spare"],
             build_sos(64.0).device.partitions["spare"]]
    with pytest.raises(ValueError, match="share their spec"):
        BatchPartition.stack(parts)
    with pytest.raises(ValueError, match="add up"):
        parts[0].scatter_to(parts)


def _row_arrays(device):
    """Every state array a device holds, by (partition, attribute)."""
    return {
        (name, field): getattr(partition, field)
        for name, partition in device.partitions.items()
        for field in _ROW_STATE
    }


@pytest.mark.parametrize("builder", [build_tlc_baseline, build_sos],
                         ids=["tlc", "sos"])
def test_later_runs_leave_snapshots_and_rows_alone(builder):
    """The engine updates its state arrays in place, so none of them may
    be shared: not with a build's scattered rows, not with an
    ``export_state`` snapshot, not with an ``import_state`` input."""
    builds = [builder(4.0) for _ in range(3)]
    volumes = [
        MobileWorkload(
            WorkloadConfig(mix=mix, days=120, seed=seed)
        ).daily_volume_arrays()
        for seed, mix in enumerate(("typical", "heavy", "adversarial"))
    ]
    run_lifetime_batch(builds, SummaryBatch.from_volume_arrays(volumes))
    held = [_row_arrays(build.device) for build in builds]
    snapshots = [build.device.export_state() for build in builds]
    expected = [copy.deepcopy((rows, snap)) for rows, snap in zip(held, snapshots)]

    # a later run on the same builds, and a batch stepped from a snapshot
    run_lifetime_batch(builds, SummaryBatch.from_volume_arrays(volumes))
    imported = _batch(lambda capacity: builder(4.0), n=1)
    imported.import_state(snapshots[0])
    _step_days(imported, 30)
    stepped = imported.export_state()["partitions"]
    assert any(
        not np.array_equal(stepped[name]["pec"], fields["pec"])
        for name, fields in snapshots[0]["partitions"].items()
    )

    # a batch stepped on after handing its rows back
    stacked = BatchLifetimeDevice.from_devices([b.device for b in builds])
    _step_days(stacked, 5)
    fresh = [builder(4.0) for _ in builds]
    for name, partition in stacked.partitions.items():
        partition.scatter_to([b.device.partitions[name] for b in fresh])
    handed = [copy.deepcopy(_row_arrays(b.device)) for b in fresh]
    _step_days(stacked, 30, seed=3)
    for build, rows in zip(fresh, handed):
        for key, array in _row_arrays(build.device).items():
            assert np.array_equal(array, rows[key]), key

    for (rows, snap), (rows_before, snap_before) in zip(
        zip(held, snapshots), expected
    ):
        for key, array in rows.items():
            assert np.array_equal(array, rows_before[key]), key
        assert snap["now_years"] == snap_before["now_years"]
        for name, fields in snap["partitions"].items():
            for field, array in fields.items():
                assert np.array_equal(array, snap_before["partitions"][name][field]), (
                    name, field,
                )
