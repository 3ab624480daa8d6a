"""Device builds and the lifetime engine: who-wins shape checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ecc.policy import POLICIES, ProtectionLevel
from repro.flash.cell import CellTechnology, native_mode
from repro.sim.baselines import (
    ALL_BUILDERS,
    build_plc_naive,
    build_qlc_baseline,
    build_sos,
    build_tlc_baseline,
)
from repro.sim import batch
from repro.sim.engine import run_lifetime
from repro.sim.lifetime import PartitionSpec
from repro.workloads.mobile import MobileWorkload, WorkloadConfig


@pytest.fixture(scope="module")
def volumes():
    return MobileWorkload(WorkloadConfig(mix="typical", days=365, seed=17)).daily_volume_arrays()


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


class TestNativeBuildPins:
    """The conventional builds share one helper; each keeps its spec,
    capacity and carbon intensity."""

    @pytest.mark.parametrize(
        ("name", "technology", "intensity_hex"),
        [
            ("tlc_baseline", CellTechnology.TLC, "0x1.47ae147ae147bp-3"),
            ("qlc_baseline", CellTechnology.QLC, "0x1.eb851eb851eb8p-4"),
            ("plc_naive", CellTechnology.PLC, "0x1.89374bc6a7efap-4"),
        ],
    )
    @pytest.mark.parametrize("capacity_gb", [64.0, 8.5])
    def test_build_is_pinned(self, name, technology, intensity_hex, capacity_gb):
        build = ALL_BUILDERS[name](capacity_gb)
        assert build.name == name
        assert build.capacity_gb == capacity_gb
        assert build.intensity_kg_per_gb.hex() == intensity_hex
        assert list(build.device.partitions) == ["main"]
        assert build.device.partitions["main"].spec == PartitionSpec(
            name="main",
            mode=native_mode(technology),
            protection=POLICIES[ProtectionLevel.STRONG],
            capacity_gb=capacity_gb,
            waf=2.5,
            wear_leveling=True,
            max_rber=5e-3,
            health_horizon_years=1.0,
            resuscitation_bits=(),
            scrub_enabled=False,
            scrub_quality_floor=0.85,
            quality_sensitivity=800.0,
            n_groups=20,
        )

    def test_default_capacity(self):
        for name in ("tlc_baseline", "qlc_baseline", "plc_naive"):
            assert ALL_BUILDERS[name]().capacity_gb == 64.0


class TestEngine:
    def test_one_year_typical_use_all_devices_survive(self, volumes):
        for builder in (build_tlc_baseline, build_qlc_baseline, build_sos):
            result = run_lifetime(builder(64.0), volumes)
            assert result.survived(), builder.__name__

    def test_tlc_wear_fraction_small_under_typical_use(self, volumes):
        """§2.3.2: typical users consume a tiny share of endurance."""
        result = run_lifetime(build_tlc_baseline(64.0), volumes)
        assert result.final.sys_wear_fraction < 0.05

    def test_sos_sys_wears_faster_than_tlc_but_survives(self, volumes):
        tlc = run_lifetime(build_tlc_baseline(64.0), volumes)
        sos = run_lifetime(build_sos(64.0), volumes)
        assert sos.final.sys_wear_fraction > tlc.final.sys_wear_fraction
        assert sos.final.sys_wear_fraction < 0.5

    def test_spare_quality_stays_high_with_scrub(self, volumes):
        result = run_lifetime(build_sos(64.0, scrub_enabled=True), volumes)
        assert result.final.spare_quality > 0.9

    def test_scrub_improves_end_of_life_quality(self):
        days = 3 * 365
        volumes = MobileWorkload(
            WorkloadConfig(mix="typical", days=days, seed=17)
        ).daily_volume_arrays()
        with_scrub = run_lifetime(build_sos(64.0, scrub_enabled=True), volumes)
        without = run_lifetime(build_sos(64.0, scrub_enabled=False), volumes)
        assert with_scrub.final.spare_quality >= without.final.spare_quality

    def test_media_demotion_rate_shifts_wear(self, volumes, monkeypatch):
        """More demotion -> more SPARE wear, less SYS pressure."""
        monkeypatch.setattr(batch, "MEDIA_DEMOTION_RATE", 0.95)
        high = run_lifetime(build_sos(64.0), volumes)
        monkeypatch.setattr(batch, "MEDIA_DEMOTION_RATE", 0.1)
        low = run_lifetime(build_sos(64.0), volumes)
        assert high.final.spare_wear_fraction > low.final.spare_wear_fraction

    def test_zero_day_run_raises(self, volumes):
        """An empty day sequence is refused up front: there is no end
        state to return."""
        with pytest.raises(ValueError, match="at least one day"):
            run_lifetime(build_tlc_baseline(64.0), _days(range(0)))
        with pytest.raises(ValueError, match="at least one day"):
            run_lifetime(build_sos(64.0), {k: v[:0] for k, v in volumes.items()})


class TestEndStatePins:
    """Each build's end state after two years of the typical mix, bit for
    bit: ``day``, then ``years``, ``capacity_gb``, ``sys_wear_fraction``,
    ``spare_wear_fraction``, ``spare_quality`` and ``sys_uncorrectable``
    as ``float.hex()``, then the retired and resuscitated group counts.
    At 16 GB the SOS SPARE groups all resuscitate."""

    @pytest.mark.parametrize(
        ("capacity_gb", "name", "expected"),
        [
            (64.0, "tlc_baseline", (
                729, "0x1.000000000004ap+1", "0x1.0000000000001p+6",
                "0x1.a5819f1ece54dp-6", "0x1.a5819f1ece54dp-6",
                "0x1.0000000000000p+0", "0x1.903214ec1a29ap-79", 0, 0)),
            (64.0, "qlc_baseline", (
                729, "0x1.000000000004ap+1", "0x1.0000000000001p+6",
                "0x1.3c2137571abfap-4", "0x1.3c2137571abfap-4",
                "0x1.0000000000000p+0", "0x1.cbd635396af29p-56", 0, 0)),
            (64.0, "plc_naive", (
                729, "0x1.000000000004ap+1", "0x1.0000000000001p+6",
                "0x1.3c2137571abfap-3", "0x1.3c2137571abfap-3",
                "0x1.0000000000000p+0", "0x1.ca6af024423c3p-32", 0, 0)),
            (64.0, "sos", (
                729, "0x1.000000000004ap+1", "0x1.0000000000001p+6",
                "0x1.5f4159ef0146bp-3", "0x1.ac543ec22ecc9p-4",
                "0x1.f4b5de18fdb4bp-1", "0x1.af25c7019a696p-50", 0, 0)),
            (16.0, "tlc_baseline", (
                729, "0x1.000000000004ap+1", "0x1.0000000000001p+4",
                "0x1.a5819f1ece54dp-4", "0x1.a5819f1ece54dp-4",
                "0x1.0000000000000p+0", "0x1.673e86d5eaf54p-75", 0, 0)),
            (16.0, "qlc_baseline", (
                729, "0x1.000000000004ap+1", "0x1.0000000000001p+4",
                "0x1.3c2137571abfap-2", "0x1.3c2137571abfap-2",
                "0x1.0000000000000p+0", "0x1.15181e5d3deadp-33", 0, 0)),
            (16.0, "plc_naive", (
                729, "0x1.000000000004ap+1", "0x1.0000000000001p+4",
                "0x1.3c2137571abfap-1", "0x1.3c2137571abfap-1",
                "0x1.ffffbf96966d4p-1", "0x1.114652628a0b5p+5", 0, 0)),
            (16.0, "sos", (
                729, "0x1.000000000004ap+1", "0x1.999999999999bp+3",
                "0x1.5f4159ef0146bp-1", "0x1.3784c56d090b2p-1",
                "0x1.ff4f97bd7178cp-1", "0x1.1fa2cc0c2d336p-10", 0, 20)),
        ],
    )
    def test_end_state_is_pinned(self, capacity_gb, name, expected):
        volumes = MobileWorkload(
            WorkloadConfig(mix="typical", days=730, seed=28)
        ).daily_volume_arrays()
        f = run_lifetime(ALL_BUILDERS[name](capacity_gb), volumes).final
        assert (
            f.day,
            f.years.hex(),
            f.capacity_gb.hex(),
            f.sys_wear_fraction.hex(),
            f.spare_wear_fraction.hex(),
            f.spare_quality.hex(),
            f.sys_uncorrectable.hex(),
            f.retired_groups,
            f.resuscitated_groups,
        ) == expected


def _days(days, delete_gb: float = 0.0) -> dict[str, np.ndarray]:
    """Volume arrays for ``days`` (any labels) that only delete."""
    day = np.array(list(days), dtype=np.int64)
    zeros = np.zeros(day.shape)
    return {"day": day, "new_media_gb": zeros, "new_other_gb": zeros,
            "overwrite_gb": zeros, "read_gb": zeros,
            "delete_gb": np.full(day.shape, delete_gb)}


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
        run_lifetime(build, _days([0], 5.0))
        assert before - _live(partition) == pytest.approx(5.0)

    def test_two_pressured_partitions_delete_the_volume_once_total(self):
        build = build_sos(64.0)
        for name in ("sys", "spare"):
            _fill(build.device.partitions[name], 0.9)
        before = sum(_live(p) for p in build.device.partitions.values())
        run_lifetime(build, _days([0], 5.0))
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
        run_lifetime(build, _days([0], 4.0))
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
        run_lifetime(build, _days([0], 5.0))
        assert _live(build.device.partitions["spare"]) == pytest.approx(
            spare_before
        )


class TestFinalDay:
    """The end state is taken by position, after the last entry: day
    labels may be 1-indexed or sliced, and ``final.day`` is the label of
    the last one."""

    @pytest.mark.parametrize(
        ("days", "last"),
        [(range(1, 11), 10), (range(5, 41), 40)],
        ids=["one-indexed", "sliced"],
    )
    def test_final_day_is_the_last_day_entry(self, days, last):
        result = run_lifetime(build_tlc_baseline(64.0), _days(days))
        assert result.final.day == last
        assert result.final.years == pytest.approx(len(days) / 365.0)
