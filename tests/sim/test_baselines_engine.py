"""Device builds and the lifetime engine: who-wins shape checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.baselines import (
    build_plc_naive,
    build_qlc_baseline,
    build_sos,
    build_tlc_baseline,
)
from repro.sim.engine import run_lifetime
from repro.sim.lifetime import LifetimeResult, SimConfig
from repro.workloads.mobile import MobileWorkload, WorkloadConfig
from repro.workloads.traces import DailySummary


@pytest.fixture(scope="module")
def summaries():
    return MobileWorkload(WorkloadConfig(mix="typical", days=365, seed=17)).daily_summaries()


class TestBuilds:
    def test_carbon_ordering(self):
        """Embodied intensity: TLC > QLC > SOS > PLC-naive."""
        tlc = build_tlc_baseline().intensity_kg_per_gb
        qlc = build_qlc_baseline().intensity_kg_per_gb
        sos = build_sos().intensity_kg_per_gb
        plc = build_plc_naive().intensity_kg_per_gb
        assert tlc > qlc > sos > plc

    def test_sos_carbon_reduction_is_one_third_of_tlc(self):
        tlc = build_tlc_baseline()
        sos = build_sos()
        assert 1 - sos.intensity_kg_per_gb / tlc.intensity_kg_per_gb == pytest.approx(
            0.325, abs=0.001
        )

    def test_sos_has_two_partitions(self):
        build = build_sos()
        assert set(build.device.partitions) == {"sys", "spare"}

    def test_sos_spare_wl_disabled(self):
        build = build_sos()
        assert not build.device.partitions["spare"].spec.wear_leveling
        assert build.device.partitions["sys"].spec.wear_leveling


class TestEngine:
    def test_one_year_typical_use_all_devices_survive(self, summaries):
        for builder in (build_tlc_baseline, build_qlc_baseline, build_sos):
            result = run_lifetime(builder(64.0), summaries)
            assert result.survived(), builder.__name__

    def test_tlc_wear_fraction_small_under_typical_use(self, summaries):
        """§2.3.2: typical users consume a tiny share of endurance."""
        result = run_lifetime(build_tlc_baseline(64.0), summaries)
        assert result.final.sys_wear_fraction < 0.05

    def test_sos_sys_wears_faster_than_tlc_but_survives(self, summaries):
        tlc = run_lifetime(build_tlc_baseline(64.0), summaries)
        sos = run_lifetime(build_sos(64.0), summaries)
        assert sos.final.sys_wear_fraction > tlc.final.sys_wear_fraction
        assert sos.final.sys_wear_fraction < 0.5

    def test_spare_quality_stays_high_with_scrub(self, summaries):
        result = run_lifetime(build_sos(64.0, scrub_enabled=True), summaries)
        assert result.final.spare_quality > 0.9

    def test_scrub_improves_end_of_life_quality(self):
        days = 3 * 365
        summaries = MobileWorkload(
            WorkloadConfig(mix="typical", days=days, seed=17)
        ).daily_summaries()
        with_scrub = run_lifetime(build_sos(64.0, scrub_enabled=True), summaries)
        without = run_lifetime(build_sos(64.0, scrub_enabled=False), summaries)
        assert with_scrub.final.spare_quality >= without.final.spare_quality

    def test_samples_are_chronological(self, summaries):
        result = run_lifetime(build_sos(64.0), summaries)
        days = [s.day for s in result.samples]
        assert days == sorted(days)
        assert result.samples[-1].day == len(summaries) - 1

    def test_media_demotion_rate_shifts_wear(self, summaries):
        """More demotion -> more SPARE wear, less SYS pressure."""
        high = run_lifetime(
            build_sos(64.0), summaries, SimConfig(media_demotion_rate=0.95)
        )
        low = run_lifetime(
            build_sos(64.0), summaries, SimConfig(media_demotion_rate=0.1)
        )
        assert high.final.spare_wear_fraction > low.final.spare_wear_fraction

    def test_final_raises_without_samples(self):
        result = LifetimeResult(build_name="x", capacity_gb=1.0, intensity_kg_per_gb=0.1)
        with pytest.raises(ValueError):
            _ = result.final


def _delete_only_day(day: int, delete_gb: float) -> DailySummary:
    return DailySummary(day=day, new_media_gb=0.0, new_other_gb=0.0,
                        overwrite_gb=0.0, read_gb=0.0, delete_gb=delete_gb)


def _fill(partition, fraction: float) -> None:
    """Stage live groups ``fraction`` full of data written at t=0."""
    state = partition.export_state()
    alive = ~state["retired"]
    state["live_gb"] = np.where(alive, state["capacity_gb"] * fraction, state["live_gb"])
    state["write_time"] = np.where(alive, 0.0, state["write_time"])
    partition.import_state(state)


def _live(partition) -> float:
    return float(partition.live_data_gb()[0])


class TestDeleteAccounting:
    """Deletion volume must be apportioned, not duplicated, across
    pressured partitions (multi-partition builds used to delete the
    day's volume once *per* partition)."""

    def test_single_partition_deletes_exactly_the_summary_volume(self):
        build = build_tlc_baseline(64.0)
        partition = build.device.partitions["main"]
        _fill(partition, 0.9)
        before = _live(partition)
        run_lifetime(build, [_delete_only_day(0, 5.0)])
        assert before - _live(partition) == pytest.approx(5.0)

    def test_two_pressured_partitions_delete_the_volume_once_total(self):
        build = build_sos(64.0)
        for name in ("sys", "spare"):
            _fill(build.device.partitions[name], 0.9)
        before = sum(_live(p) for p in build.device.partitions.values())
        run_lifetime(build, [_delete_only_day(0, 5.0)])
        after = sum(_live(p) for p in build.device.partitions.values())
        # the old per-partition loop removed 5 GB from EACH partition
        assert before - after == pytest.approx(5.0)

    def test_apportionment_follows_live_data_share(self):
        build = build_sos(64.0)
        sys_part = build.device.partitions["sys"]
        spare = build.device.partitions["spare"]
        _fill(sys_part, 0.9)
        _fill(spare, 0.95)
        sys_before = _live(sys_part)
        spare_before = _live(spare)
        run_lifetime(build, [_delete_only_day(0, 4.0)])
        sys_share = sys_before / (sys_before + spare_before)
        assert sys_before - _live(sys_part) == pytest.approx(4.0 * sys_share)
        assert spare_before - _live(spare) == pytest.approx(
            4.0 * (1 - sys_share)
        )

    def test_unpressured_partitions_keep_their_data(self):
        build = build_sos(64.0)
        _fill(build.device.partitions["sys"], 0.9)
        _fill(build.device.partitions["spare"], 0.2)  # below the 0.85 trigger
        spare_before = _live(build.device.partitions["spare"])
        run_lifetime(build, [_delete_only_day(0, 5.0)])
        assert _live(build.device.partitions["spare"]) == pytest.approx(
            spare_before
        )


class TestSamplingPositions:
    """The final sample must be taken by position: trace days may be
    1-indexed or sliced, so ``day % cadence`` alone cannot find the end."""

    def test_short_one_indexed_trace_still_yields_a_final_sample(self):
        summaries = [_delete_only_day(day, 0.0) for day in range(1, 11)]
        result = run_lifetime(build_tlc_baseline(64.0), summaries)
        assert result.samples  # old behavior: no day hit the cadence -> empty
        assert result.final.day == 10

    def test_sliced_trace_samples_cadence_and_end(self):
        summaries = [_delete_only_day(day, 0.0) for day in range(5, 41)]
        result = run_lifetime(
            build_tlc_baseline(64.0), summaries, SimConfig(sample_every_days=30)
        )
        assert [s.day for s in result.samples] == [30, 40]

    def test_final_sample_not_duplicated_when_cadence_hits_the_end(self):
        summaries = [_delete_only_day(day, 0.0) for day in range(0, 31)]
        result = run_lifetime(
            build_tlc_baseline(64.0), summaries, SimConfig(sample_every_days=30)
        )
        assert [s.day for s in result.samples] == [0, 30]
