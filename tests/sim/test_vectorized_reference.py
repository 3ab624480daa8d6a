"""The engine's partition hot path vs a scalar per-group reference.

Production partitions (:class:`repro.sim.batch.BatchPartition`) run each
daily operation -- write placement, quality, failure aggregation -- as
whole-array numpy expressions over the block-group state.  These tests
stage a worn partition on the scalar oracle (``lifetime_oracle.py``),
copy its state into a one-row production partition, and recompute each
operation the pre-vectorization way -- one scalar call per oracle
:class:`BlockGroup` view -- requiring agreement, so a future
vectorization change cannot silently alter the model.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from lifetime_oracle import Partition, from_partitions

from repro.ecc.policy import POLICIES, ProtectionLevel
from repro.flash.cell import CellMode, CellTechnology, native_mode
from repro.sim.batch import QUALITY_SENSITIVITY, BatchPartition
from repro.sim.lifetime import HOT_GROUP_FRACTION, WL_WRITE_OVERHEAD, PartitionSpec


def make_spec(**overrides) -> PartitionSpec:
    defaults = dict(
        name="main",
        mode=native_mode(CellTechnology.PLC),
        protection=POLICIES[ProtectionLevel.STRONG],
        capacity_gb=64.0,
        wear_leveling=False,
    )
    defaults.update(overrides)
    return PartitionSpec(**defaults)


def worn_partition(**overrides) -> Partition:
    """An oracle partition with uneven wear, ages, and live data staged on it."""
    partition = Partition(make_spec(**overrides))
    rng = np.random.default_rng(42)
    for i, group in enumerate(partition.groups):
        group.pec = float(rng.uniform(0, 800))
        group.live_gb = float(rng.uniform(0, group.capacity_gb))
        group.mean_write_time = float(rng.uniform(0, 2.0))
        if i % 7 == 3:
            group.live_gb = 0.0
    return partition


def one(value: float) -> np.ndarray:
    """A one-device volume argument."""
    return np.array([value])


def scalar_quality(partition: Partition, now: float) -> float:
    spec = partition.spec
    weighted = total = 0.0
    for g in partition.live_groups():
        if g.live_gb <= 0:
            continue
        residual = spec.protection.residual_ber(g.rber(now))
        weighted += math.exp(-QUALITY_SENSITIVITY * residual) * g.live_gb
        total += g.live_gb
    return weighted / total if total else 1.0


def scalar_uncorrectable(partition: Partition, now: float, page_bits: int = 4096 * 8) -> float:
    spec = partition.spec
    out = 0.0
    for g in partition.live_groups():
        if g.live_gb <= 0:
            continue
        pages = g.live_gb * 1e9 * 8 / page_bits
        out += pages * spec.protection.page_failure_prob(g.rber(now), page_bits)
    return out


class TestQualityAggregates:
    @pytest.mark.parametrize("level", [ProtectionLevel.STRONG, ProtectionLevel.WEAK,
                                       ProtectionLevel.NONE])
    def test_mean_quality_matches_scalar(self, level):
        reference = worn_partition(protection=POLICIES[level])
        partition = from_partitions([reference])
        assert partition.mean_quality(2.5)[0] == pytest.approx(
            scalar_quality(reference, 2.5), rel=1e-12
        )

    def test_expected_uncorrectable_matches_scalar(self):
        reference = worn_partition()
        partition = from_partitions([reference])
        assert partition.expected_uncorrectable(2.5)[0] == pytest.approx(
            scalar_uncorrectable(reference, 2.5), rel=1e-12
        )

    def test_worst_group_rber_matches_scalar(self):
        reference = worn_partition()
        partition = from_partitions([reference])
        expected = max(
            g.rber(2.5, extra_age=1.0)
            for g in reference.live_groups() if g.live_gb > 0
        )
        holders = ~partition._retired & (partition._live > 0.0)
        worst = partition._rber(2.5, extra_age=1.0)[holders].max()
        assert worst == pytest.approx(expected, rel=1e-12)

    def test_mixed_modes_match_scalar(self):
        # heterogeneous modes (post-resuscitation state) exercise the
        # by-mode batching path instead of the uniform-mode fast path
        reference = worn_partition(resuscitation_bits=(4,))
        for g in reference.groups[::3]:
            g.mode = CellMode(CellTechnology.PLC, 4)
        partition = from_partitions([reference])
        assert partition._heterogeneous
        assert partition.mean_quality(2.5)[0] == pytest.approx(
            scalar_quality(reference, 2.5), rel=1e-12
        )

    def test_group_view_rber_matches_model(self):
        reference = worn_partition()
        partition = from_partitions([reference])
        rber = partition._rber(2.5)[0]
        for i, g in enumerate(reference.groups):
            assert rber[i] == pytest.approx(g.rber(2.5), rel=1e-12), i


class TestWritePlacement:
    def test_wl_write_even_share_matches_scalar(self):
        vec = BatchPartition(make_spec(wear_leveling=True, waf=2.0), 1)
        ref = Partition(make_spec(wear_leveling=True, waf=2.0))
        vec.host_write(one(10.0), now=0.5, churn=True)
        # scalar reference: every live group absorbs gb/n at WAF*(1+WL)
        n = len(ref.live_groups())
        for g in ref.live_groups():
            g.absorb_write(10.0 / n, now=0.5, waf=2.0 * (1 + WL_WRITE_OVERHEAD))
        state = vec.export_state()
        np.testing.assert_array_equal(state["pec"][0], ref._pec)
        np.testing.assert_array_equal(state["live_gb"][0], ref._live)
        np.testing.assert_array_equal(state["write_time"][0], ref._write_time)

    def test_churn_targets_hottest_groups(self):
        partition = from_partitions([worn_partition(wear_leveling=False)])
        before = partition._pec[0].copy()
        live = int((~partition._retired[0]).sum())
        hot_count = max(1, int(live * HOT_GROUP_FRACTION))
        expected_hot = set(
            sorted(range(len(before)), key=lambda i: -before[i])[:hot_count]
        )
        partition.host_write(one(5.0), now=1.0, churn=True)
        touched = set(np.flatnonzero(partition._pec[0] != before))
        assert touched == expected_hot

    def test_append_round_robin_over_cold_groups(self):
        partition = BatchPartition(make_spec(wear_leveling=False, n_groups=4, waf=1.0), 1)
        for k in range(6):
            partition.host_write(one(1.0), now=0.0, churn=False)
        # 6 appends over 4 groups: first two groups written twice
        assert list(partition._pec[0]) == pytest.approx(
            [2 / 16, 2 / 16, 1 / 16, 1 / 16]
        )

    def test_host_delete_proportional(self):
        partition = from_partitions([worn_partition()])
        live_before = partition._live.copy()
        total = partition.live_data_gb()
        partition.host_delete(total / 4)
        np.testing.assert_allclose(partition._live, live_before * 0.75, rtol=1e-12)

    def test_retired_groups_excluded_everywhere(self):
        reference = worn_partition()
        victim = reference.groups[2]
        victim.retired = True
        victim.live_gb = 0.0
        partition = from_partitions([reference])
        before = victim.pec
        for engine, volume in ((reference, float), (partition, one)):
            engine.host_write(volume(8.0), now=1.5, churn=True)
            engine.host_write(volume(8.0), now=1.5, churn=False)
            engine.host_delete(volume(1.0))
        assert partition._pec[0, 2] == victim.pec == before
        assert partition._live[0, 2] == victim.live_gb == 0.0
        assert partition.mean_quality(2.0)[0] == pytest.approx(
            scalar_quality(reference, 2.0), rel=1e-12
        )
