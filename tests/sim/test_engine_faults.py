"""Fault plans through the lifetime engine: transparency, counters, replay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultConfig, FaultPlan
from repro.runner import Sweep, run_sweep
from repro.runner.points import lifetime_point
from repro.sim.baselines import build_sos, build_tlc_baseline
from repro.sim.engine import run_lifetime
from repro.workloads.mobile import MobileWorkload, WorkloadConfig

DAYS = 240
SEED = 13


def _volumes():
    return MobileWorkload(
        WorkloadConfig(mix="typical", days=DAYS, seed=SEED)
    ).daily_volume_arrays()


def _assert_same_end_state(a, b) -> None:
    """Two builds' devices hold bit-identical state after their runs."""
    assert a.device.now_years == b.device.now_years
    for name, partition in a.device.partitions.items():
        other = b.device.partitions[name].export_state()
        for key, array in partition.export_state().items():
            assert np.array_equal(array, other[key]), (name, key)


def _targets(build):
    return {
        name: partition.spec.n_groups
        for name, partition in build.device.partitions.items()
    }


def _plan(config: FaultConfig, build, seed: int = SEED) -> FaultPlan:
    return FaultPlan.generate(config, seed=seed, horizon_days=DAYS,
                              targets=_targets(build))


class TestZeroRateTransparency:
    def test_zero_plan_is_bit_identical_to_no_plan(self):
        bare_build, gated_build = build_sos(32.0), build_sos(32.0)
        bare = run_lifetime(bare_build, _volumes())
        plan = _plan(FaultConfig(), build_sos(32.0))
        gated = run_lifetime(gated_build, _volumes(), fault_plan=plan)
        assert plan.empty
        assert bare.final == gated.final  # bit-identical, not approx
        _assert_same_end_state(bare_build, gated_build)
        assert gated.faults.total_events == 0
        assert bare.faults is None  # no plan -> no counters attached


class TestFaultEffects:
    def test_infant_mortality_retires_groups(self):
        config = FaultConfig(block_infant_mortality=0.3, infant_window_days=60)
        build = build_tlc_baseline(32.0)
        result = run_lifetime(
            build, _volumes(), fault_plan=_plan(config, build)
        )
        control = run_lifetime(build_tlc_baseline(32.0), _volumes())
        assert result.faults.infant_deaths > 0
        assert result.final.retired_groups >= result.faults.infant_deaths
        assert result.final.capacity_gb < control.final.capacity_gb

    def test_transient_read_accounting_balances(self):
        config = FaultConfig(transient_read_rate=0.8, max_read_retries=2)
        build = build_sos(32.0)
        result = run_lifetime(
            build, _volumes(), fault_plan=_plan(config, build)
        )
        faults = result.faults
        assert faults.transient_reads > 0
        assert (
            faults.reads_recovered + faults.reads_unrecovered
            == faults.transient_reads
        )
        assert (
            faults.read_retry_attempts
            <= config.max_read_retries * faults.transient_reads
        )

    def test_torn_programs_cost_recovery_rewrites(self):
        config = FaultConfig(power_loss_rate=0.3)
        build = build_sos(32.0)
        result = run_lifetime(
            build, _volumes(), fault_plan=_plan(config, build)
        )
        assert result.faults.torn_programs > 0
        assert result.faults.torn_rewrite_gb > 0.0

    def test_cloud_outage_defers_scrubs(self):
        config = FaultConfig(cloud_outage_rate=0.05, cloud_outage_days=5)
        build = build_sos(32.0)
        plan = _plan(config, build)
        result = run_lifetime(build, _volumes(), fault_plan=plan)
        expected_days = sum(
            1 for day in range(DAYS) if plan.in_cloud_outage(day)
        )
        n_scrubbed = sum(
            1 for p in build.device.partitions.values() if p.spec.scrub_enabled
        )
        assert expected_days > 0
        assert result.faults.cloud_outage_days == expected_days
        assert result.faults.scrubs_deferred == expected_days * n_scrubbed

    def test_device_survives_harsh_fault_population(self):
        """Graceful degradation: harsh faults shrink the device, never
        crash the simulation."""
        config = FaultConfig(
            block_infant_mortality=0.4,
            transient_read_rate=2.0,
            power_loss_rate=1.0,
            cloud_outage_rate=0.1,
        )
        build = build_sos(32.0)
        result = run_lifetime(
            build, _volumes(), fault_plan=_plan(config, build)
        )
        assert result.final.capacity_gb > 0
        assert result.faults.total_events > 0


class TestScheduleReplay:
    FAULTS = {
        "block_infant_mortality": 0.1,
        "transient_read_rate": 0.5,
        "power_loss_rate": 0.2,
        "cloud_outage_rate": 0.05,
    }

    def _sweep(self) -> Sweep:
        grid = tuple(
            {"build": name, "capacity_gb": 32.0, "mix": "typical",
             "days": 120, "workload_seed": SEED, "faults": self.FAULTS}
            for name in ("tlc_baseline", "sos")
        )
        return Sweep(name="engine-faults-replay", fn=lifetime_point,
                     grid=grid, base_seed=3)

    def test_serial_and_parallel_replay_identically(self):
        serial = run_sweep(self._sweep(), jobs=1)
        parallel = run_sweep(self._sweep(), jobs=2)
        for a, b in zip(serial.points, parallel.points):
            assert a.value.faults is not None
            assert a.value.faults.as_dict() == b.value.faults.as_dict()
            assert a.value.final == b.value.final
        assert any(
            p.value.faults.total_events > 0 for p in serial.points
        )

    def test_identical_inputs_identical_event_log(self):
        build = build_sos(32.0)
        config = FaultConfig(**self.FAULTS)
        a = _plan(config, build)
        b = _plan(config, build)
        assert a.event_log() == b.event_log()
        assert a.digest() == b.digest()
        assert a.digest() != _plan(config, build, seed=SEED + 1).digest()

    def test_fault_days_are_indexed_by_position(self):
        """A sliced trace replays the same schedule: fault days count
        from the start of the *run*, not the trace's day labels."""
        config = FaultConfig(block_infant_mortality=0.3, infant_window_days=10)
        full = _volumes()
        # day labels start at 120
        offset = {name: array[120:] for name, array in full.items()}
        build = build_tlc_baseline(32.0)
        plan = FaultPlan.generate(config, seed=SEED, horizon_days=len(offset["day"]),
                                  targets=_targets(build))
        result = run_lifetime(build, offset, fault_plan=plan)
        assert result.final.day == DAYS - 1
        scheduled = {
            unit
            for day in range(10)
            for _, unit in plan.infant_deaths(day)
        }
        # every infant death scheduled in the first 10 *positions* landed
        # even though the trace's own day field starts past the window
        assert result.faults.infant_deaths == len(scheduled)
        assert result.faults.infant_deaths > 0


class TestResultShape:
    def test_faults_counters_round_trip_through_pickle(self):
        import pickle

        config = FaultConfig(transient_read_rate=0.5)
        build = build_sos(32.0)
        result = run_lifetime(
            build, _volumes(), fault_plan=_plan(config, build)
        )
        clone = pickle.loads(pickle.dumps(result))
        assert clone.faults.as_dict() == result.faults.as_dict()
        assert clone.final == result.final

    def test_survived_still_works_with_faults(self):
        config = FaultConfig(transient_read_rate=0.2)
        build = build_sos(32.0)
        result = run_lifetime(
            build, _volumes(), fault_plan=_plan(config, build)
        )
        assert isinstance(result.survived(), bool)
