"""Scrubber: rescue of endangered SPARE pages, cloud repair, health."""

from __future__ import annotations

import pytest

from repro.core.config import default_config
from repro.core.degradation import DegradationMonitor
from repro.core.partitions import build_partitions
from repro.core.repair import CloudBackup
from repro.core.scrubber import Scrubber
from repro.host.block_layer import BlockLayer
from repro.host.hints import Placement


@pytest.fixture
def setup():
    device = build_partitions(default_config(seed=2))
    layer = BlockLayer(device.ftl)
    monitor = DegradationMonitor(device.ftl, horizon_years=0.5)
    backup = CloudBackup()
    scrubber = Scrubber(layer, monitor, backup, quality_floor=0.85)
    return device, layer, backup, scrubber


def write_spare(layer, lpn, payload=b"payload"):
    layer.write_page(lpn, payload, placement=Placement.SPARE)


def wear_spare_blocks(device, pec):
    for block in device.chip.blocks:
        if block.mode.operating_bits == 5:
            block.pec = pec


class TestScrub:
    def test_healthy_pages_untouched(self, setup):
        device, layer, backup, scrubber = setup
        lpns = [100 + i for i in range(4)]
        for lpn in lpns:
            write_spare(layer, lpn)
        report = scrubber.scrub(lpns)
        assert report.pages_scanned == 4
        assert report.pages_endangered == 0
        assert report.pages_relocated == 0

    def test_endangered_pages_relocated_without_backup(self, setup):
        device, layer, backup, scrubber = setup
        lpns = [200 + i for i in range(4)]
        for lpn in lpns:
            write_spare(layer, lpn)
        wear_spare_blocks(device, 1500)
        report = scrubber.scrub(lpns)
        assert report.pages_endangered == 4
        assert report.pages_relocated == 4
        assert report.pages_repaired_from_cloud == 0

    def test_cloud_backed_pages_repaired(self, setup):
        device, layer, backup, scrubber = setup
        lpns = [300 + i for i in range(3)]
        for lpn in lpns:
            write_spare(layer, lpn, b"clean!")
            backup.store_page(lpn, b"clean!")
        wear_spare_blocks(device, 1500)
        report = scrubber.scrub(lpns)
        assert report.pages_repaired_from_cloud == 3
        assert report.pages_relocated == 0
        assert backup.stats.pages_fetched == 3

    def test_unavailable_cloud_falls_back_to_relocation(self, setup):
        device, layer, _, _ = setup
        backup = CloudBackup(available=False)
        monitor = DegradationMonitor(device.ftl, horizon_years=0.5)
        scrubber = Scrubber(layer, monitor, backup, quality_floor=0.85)
        write_spare(layer, 400, b"data")
        backup.store_page(400, b"data")
        wear_spare_blocks(device, 1500)
        report = scrubber.scrub([400])
        assert report.pages_repaired_from_cloud == 0
        assert report.pages_relocated == 1

    def test_scrub_triggers_health_actions_on_worn_blocks(self, setup):
        """After rescue, vacated worn blocks retire or resuscitate."""
        device, layer, backup, scrubber = setup
        lpns = [500 + i for i in range(4)]
        for lpn in lpns:
            write_spare(layer, lpn)
        wear_spare_blocks(device, 5000)  # beyond the resuscitation ladder too
        report = scrubber.scrub(lpns)
        assert report.blocks_retired + report.blocks_resuscitated > 0


def _scrubber_with_backup(device, layer, backup, **kwargs):
    monitor = DegradationMonitor(device.ftl, horizon_years=0.5)
    return Scrubber(layer, monitor, backup, quality_floor=0.85, **kwargs)


class TestRepairRetry:
    """Bounded retry + graceful degradation of the cloud repair path."""

    def _endangered_backed_pages(self, device, layer, backup, n=4, base=600):
        lpns = [base + i for i in range(n)]
        for lpn in lpns:
            write_spare(layer, lpn, b"clean!")
            backup.store_page(lpn, b"clean!")
        wear_spare_blocks(device, 1500)
        return lpns

    def test_outage_burns_retries_then_degrades_to_relocation(self, setup):
        device, layer, _, _ = setup
        backup = CloudBackup(outage_windows=((0.0, 10.0),))
        scrubber = _scrubber_with_backup(
            device, layer, backup, max_repair_retries=2, repair_backoff_s=0.5
        )
        lpns = self._endangered_backed_pages(device, layer, backup)
        report = scrubber.scrub(lpns)
        assert report.pages_repaired_from_cloud == 0
        # graceful degradation: every failed repair counted, every page
        # still rescued by relocation -- the sweep keeps simulating
        assert report.repairs_failed == len(lpns)
        assert report.pages_relocated == len(lpns)
        assert report.repair_retries == 2 * len(lpns)

    def test_backoff_is_accounted_not_slept(self, setup):
        device, layer, _, _ = setup
        backup = CloudBackup(outage_windows=((0.0, 10.0),))
        scrubber = _scrubber_with_backup(
            device, layer, backup, max_repair_retries=3, repair_backoff_s=0.5
        )
        lpns = self._endangered_backed_pages(device, layer, backup, n=1)
        import time

        start = time.perf_counter()
        report = scrubber.scrub(lpns)
        elapsed = time.perf_counter() - start
        # exponential: 0.5 + 1.0 + 2.0 simulated seconds, ~none real
        assert report.repair_backoff_s == pytest.approx(3.5)
        assert elapsed < 1.0

    def test_transient_failures_recover_within_retry_budget(self, setup):
        device, layer, _, _ = setup
        backup = CloudBackup(transient_failure_rate=0.5, seed=11)
        scrubber = _scrubber_with_backup(
            device, layer, backup, max_repair_retries=8
        )
        lpns = self._endangered_backed_pages(device, layer, backup)
        report = scrubber.scrub(lpns)
        # rate 0.5 with 8 retries: recovery is near-certain per page, and
        # every endangered page was rescued one way or the other
        assert report.pages_repaired_from_cloud > 0
        assert (
            report.pages_repaired_from_cloud
            + report.repairs_failed
            + (report.pages_relocated - report.repairs_failed)
            == len(lpns)
        )
        assert report.repair_retries > 0

    def test_misses_do_not_burn_the_retry_budget(self, setup):
        device, layer, backup, _ = setup
        scrubber = _scrubber_with_backup(
            device, layer, backup, max_repair_retries=5
        )
        lpns = [700 + i for i in range(3)]
        for lpn in lpns:
            write_spare(layer, lpn)  # endangered but NOT cloud-backed
        wear_spare_blocks(device, 1500)
        report = scrubber.scrub(lpns)
        assert report.repair_retries == 0
        assert report.repairs_failed == 0
        assert report.pages_relocated == len(lpns)

    def test_statically_unavailable_cloud_skips_retries(self, setup):
        device, layer, _, _ = setup
        backup = CloudBackup(available=False)
        scrubber = _scrubber_with_backup(
            device, layer, backup, max_repair_retries=5
        )
        lpns = self._endangered_backed_pages(device, layer, backup)
        report = scrubber.scrub(lpns)
        # retrying a cloud that is configured off can never help
        assert report.repair_retries == 0
        assert report.repairs_failed == len(lpns)
        assert report.pages_relocated == len(lpns)

    def test_negative_retry_budget_rejected(self, setup):
        device, layer, backup, _ = setup
        with pytest.raises(ValueError, match="max_repair_retries"):
            _scrubber_with_backup(device, layer, backup, max_repair_retries=-1)
