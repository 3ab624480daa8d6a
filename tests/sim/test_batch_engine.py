"""The epoch engine against the scalar oracle.

``repro.sim.batch`` is the only epoch stepping code; a single device is
its one-row case.  Its contract with the per-device scalar engine it
replaced (``lifetime_oracle.py``; see ``repro.sim.batch``): integer
observables (sample days, retire/resuscitate counters, fault counters,
integer event fields) match exactly; float observables match to 1e-9
relative (bit-identical while every group is alive, and only
pairwise-summation tree order once groups retire), and so does the end
state handed back to each build.  These tests pin that contract for
deterministic configurations, under fault plans, property-based over
random workload mixes and fleet sizes, and event by event in the trace.
"""

from __future__ import annotations

import lifetime_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lifetime_oracle import from_partitions, oracle_build

from repro.faults.plan import FaultConfig, FaultPlan
from repro.obs import merge_snapshots, observed, strip_timings
from repro.sim import (
    SummaryBatch,
    build_sos,
    build_tlc_baseline,
    run_lifetime,
    run_lifetime_batch,
)
from repro.workloads.mobile import MobileWorkload, WorkloadConfig

MIX_NAMES = ("light", "typical", "heavy", "adversarial")

FAULT_CONFIG = FaultConfig(
    block_infant_mortality=0.05,
    transient_read_rate=0.02,
    power_loss_rate=0.01,
    cloud_outage_rate=0.01,
)

#: float observables on a DaySample (ints are compared exactly)
SAMPLE_FLOATS = (
    "capacity_gb",
    "sys_wear_fraction",
    "spare_wear_fraction",
    "spare_quality",
    "sys_uncorrectable",
)


def _workloads(mixes, days, seed_base=1000):
    return [
        MobileWorkload(
            WorkloadConfig(mix=mix, days=days, seed=seed_base + i)
        ).daily_summaries()
        for i, mix in enumerate(mixes)
    ]


def _plans(builder, n, days, seed_base=7000):
    targets = (
        {"main": 20} if builder is build_tlc_baseline else {"sys": 20, "spare": 20}
    )
    return [
        FaultPlan.generate(FAULT_CONFIG, seed_base + i, days, targets)
        for i in range(n)
    ]


def _run_oracle(builder, workloads, plans):
    builds = [oracle_build(builder()) for _ in workloads]
    results = [
        oracle.run_lifetime(b, w, fault_plan=(plans[i] if plans else None))
        for i, (b, w) in enumerate(zip(builds, workloads))
    ]
    return results, builds


def _run_both(builder, mixes, days, with_faults=False):
    workloads = _workloads(mixes, days)
    plans = _plans(builder, len(mixes), days) if with_faults else None
    scalar, scalar_builds = _run_oracle(builder, workloads, plans)
    batch_builds = [builder() for _ in mixes]
    batched = run_lifetime_batch(
        batch_builds, SummaryBatch.from_summaries(workloads), fault_plans=plans
    )
    return scalar, batched, scalar_builds, batch_builds


def _assert_equivalent(scalar, batched, scalar_builds, batch_builds, rel=1e-9):
    # rel=0 claims bit-identity: no absolute slack either
    abs_tol = 0.0 if rel == 0.0 else 1e-12
    for i, (s, b) in enumerate(zip(scalar, batched)):
        assert len(s.samples) == len(b.samples)
        for ss, bs in zip(s.samples, b.samples):
            assert (ss.day, ss.retired_groups, ss.resuscitated_groups) == (
                bs.day, bs.retired_groups, bs.resuscitated_groups,
            ), f"device {i} day {ss.day}"
            assert ss.years == bs.years
            for field in SAMPLE_FLOATS:
                a, c = getattr(ss, field), getattr(bs, field)
                assert a == pytest.approx(c, rel=rel, abs=abs_tol), (i, field)
        if s.faults is not None or b.faults is not None:
            assert s.faults.as_dict() == b.faults.as_dict(), f"device {i}"
    # the engines hand their end state back to the device objects; the
    # fleets must agree there too, not just in the sampled series
    for i, (sb, bb) in enumerate(zip(scalar_builds, batch_builds)):
        assert sb.device.now_years == bb.device.now_years
        assert list(sb.device.partitions) == list(bb.device.partitions)
        for name, sp in sb.device.partitions.items():
            expected = from_partitions([sp]).export_state()
            actual = bb.device.partitions[name].export_state()
            assert expected.keys() == actual.keys()
            for key, want in expected.items():
                msg = f"device {i} partition {name} field {key}"
                if want.dtype.kind in "biu":
                    np.testing.assert_array_equal(actual[key], want, err_msg=msg)
                else:
                    np.testing.assert_allclose(
                        actual[key], want, rtol=rel, atol=abs_tol, err_msg=msg
                    )


def test_batch_matches_scalar_tlc_bit_identical():
    """Fault-free TLC fleets stay *bit-identical*, not just close."""
    scalar, batched, sb, bb = _run_both(
        build_tlc_baseline, ["light", "typical", "heavy", "adversarial"], 180
    )
    _assert_equivalent(scalar, batched, sb, bb, rel=0.0)


def test_batch_matches_scalar_sos():
    scalar, batched, sb, bb = _run_both(
        build_sos, ["typical", "heavy", "adversarial", "light", "heavy"], 200
    )
    _assert_equivalent(scalar, batched, sb, bb)


@pytest.mark.parametrize("builder", [build_tlc_baseline, build_sos])
def test_batch_matches_scalar_under_fault_plan(builder):
    scalar, batched, sb, bb = _run_both(
        builder, ["typical", "heavy", "light"], 180, with_faults=True
    )
    _assert_equivalent(scalar, batched, sb, bb)


def test_single_device_batch_degenerates_to_scalar():
    """``run_lifetime`` is the engine's one-row case, faults included."""
    workloads = _workloads(["heavy"], 120)
    plans = _plans(build_sos, 1, 120)
    scalar, scalar_builds = _run_oracle(build_sos, workloads, plans)
    build = build_sos()
    result = run_lifetime(build, workloads[0], fault_plan=plans[0])
    _assert_equivalent(scalar, [result], scalar_builds, [build])


@given(
    mixes=st.lists(st.sampled_from(MIX_NAMES), min_size=1, max_size=5),
    days=st.integers(min_value=30, max_value=150),
    use_sos=st.booleans(),
    with_faults=st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_batch_equivalence_property(mixes, days, use_sos, with_faults):
    """Any mix of workloads, fleet size, build, and fault plan agrees."""
    builder = build_sos if use_sos else build_tlc_baseline
    scalar, batched, sb, bb = _run_both(builder, mixes, days, with_faults)
    _assert_equivalent(scalar, batched, sb, bb)


def test_subnormal_churn_keeps_write_times_in_both_engines():
    """A subnormal churn write splits into 0.0 shares; the empty groups
    it lands on keep their write time in both engines (the 0/0 blend
    used to store NaN there)."""
    scalar = oracle_build(build_sos()).device
    batch = build_sos().device
    writes = {name: (0.0, 5e-324) for name in scalar.partitions}
    scalar.step_day(writes)
    batch.step_day(
        {name: (np.array([new]), np.array([churn])) for name, (new, churn) in writes.items()},
        np.ones(1, dtype=bool),
    )
    for name, partition in scalar.partitions.items():
        scalar_times = partition.export_group_state()["write_time"]
        batch_times = batch.partitions[name].export_state()["write_time"][0]
        assert np.array_equal(scalar_times, np.zeros_like(scalar_times)), name
        assert np.array_equal(batch_times, scalar_times), name


def _assert_same_events(actual: list[dict], expected: list[dict], device: int) -> None:
    """Event lists agree: kind, partition, group, ``t`` and every
    non-float field exactly; other floats within the engine contract."""
    assert len(actual) == len(expected), f"device {device}"
    for k, (got, want) in enumerate(zip(actual, expected)):
        assert got.keys() == want.keys(), (device, k, got, want)
        for key, value in want.items():
            if isinstance(value, float) and key != "t":
                assert got[key] == pytest.approx(value, rel=1e-9, abs=1e-12), (
                    device, k, key,
                )
            else:
                assert got[key] == value, (device, k, key)


def test_batch_obs_counters_match_scalar_runs():
    """One batched run reports the same deterministic metrics rollup as
    the equivalent per-device oracle runs (span *call* counts included;
    wall times are stripped, histogram totals float-compared), and each
    device's trace events, ``device`` field dropped, are the events of
    the oracle's run of that device."""
    # small, heavily used devices for a year: every event kind fires
    mixes = ["heavy", "adversarial", "heavy"]
    days = 365
    workloads = _workloads(mixes, days)
    plans = _plans(build_sos, len(mixes), days)
    per_device = []
    with observed(trace=True) as scalar_obs:
        for w, plan in zip(workloads, plans):
            first = len(scalar_obs.events)
            oracle.run_lifetime(oracle_build(build_sos(32.0)), w, fault_plan=plan)
            per_device.append(scalar_obs.events[first:])
    with observed(trace=True) as batch_obs:
        run_lifetime_batch(
            [build_sos(32.0) for _ in mixes],
            SummaryBatch.from_summaries(workloads),
            fault_plans=plans,
        )
    scalar_snap = strip_timings(merge_snapshots(scalar_obs.registry.snapshot()))
    batch_snap = strip_timings(merge_snapshots(batch_obs.registry.snapshot()))
    assert scalar_snap["counters"] == batch_snap["counters"]
    assert scalar_snap["spans"] == batch_snap["spans"]
    assert scalar_snap["histograms"].keys() == batch_snap["histograms"].keys()
    for name, hist in scalar_snap["histograms"].items():
        other = batch_snap["histograms"][name]
        assert hist["bounds"] == other["bounds"]
        assert hist["counts"] == other["counts"]
        assert hist["count"] == other["count"]
        assert hist["total"] == pytest.approx(other["total"], rel=1e-12)
    # every event kind the epoch engine emits shows up
    kinds = {e["kind"] for events in per_device for e in events}
    assert kinds == {"block_retired", "block_resuscitated", "scrub_refresh",
                     "torn_program", "transient_read", "cloud_outage_day"}
    assert all(per_device)
    assert len(batch_obs.events) == sum(map(len, per_device))
    for d, expected in enumerate(per_device):
        actual = [
            {key: value for key, value in event.items() if key != "device"}
            for event in batch_obs.events
            if event["device"] == d
        ]
        _assert_same_events(actual, expected, d)


def test_batch_rejects_mismatched_inputs():
    w = _workloads(["typical"], 30)
    with pytest.raises(ValueError):
        run_lifetime_batch([], SummaryBatch.from_summaries(w))
    builds = [build_tlc_baseline(), build_sos()]
    with pytest.raises(ValueError):
        run_lifetime_batch(
            builds, SummaryBatch.from_summaries(_workloads(["typical", "light"], 30))
        )
