"""Classifier daemon: periodic review, re-evaluation, full pipeline."""

from __future__ import annotations

import pytest
from core_oracles import spare_filter

from repro.core.sos_device import SOSDevice
from repro.core.config import default_config
from repro.host.files import FileAttributes, FileKind


@pytest.fixture
def device() -> SOSDevice:
    return SOSDevice(default_config(seed=4))


def add_junk_photo(device, name, cloud=False):
    return device.create_file(
        f"/photos/{name}", FileKind.PHOTO, size_bytes=900,
        attributes=FileAttributes(
            created_years=device.now_years, last_access_years=device.now_years,
            is_screenshot=True, duplicate_count=3, cloud_backed=cloud,
        ),
    )


def add_keeper(device, name):
    return device.create_file(
        f"/photos/{name}", FileKind.PHOTO, size_bytes=900,
        attributes=FileAttributes(
            created_years=device.now_years, last_access_years=device.now_years,
            user_favorite=True, has_known_faces=True, access_count=150,
        ),
    )


class TestReview:
    def test_first_run_reviews_everything(self, device):
        for i in range(6):
            add_junk_photo(device, f"junk{i}")
        report = device.run_daemon()
        assert report.files_reviewed == 6

    def test_second_run_skips_recently_reviewed(self, device):
        add_junk_photo(device, "a")
        device.run_daemon()
        report = device.run_daemon()
        assert report.files_reviewed == 0

    def test_reevaluation_after_period(self, device):
        add_junk_photo(device, "a")
        device.run_daemon()
        device.advance_time(device.daemon.reevaluate_period_years + 0.01)
        report = device.run_daemon()
        assert report.files_reviewed == 1

    def test_new_files_reviewed_next_run(self, device):
        add_junk_photo(device, "a")
        device.run_daemon()
        add_junk_photo(device, "b")
        report = device.run_daemon()
        assert report.files_reviewed == 1


class TestPipeline:
    def test_junk_demoted_keepers_stay(self, device):
        for i in range(4):
            add_junk_photo(device, f"junk{i}")
        keeper = add_keeper(device, "wedding")
        device.advance_time(0.05)
        device.run_daemon()
        from repro.host.hints import Placement

        assert device.placement.placement_of(keeper) is Placement.SYS
        snapshot = device.snapshot()
        assert snapshot.spare_file_count >= 3

    def test_os_files_never_demoted(self, device):
        record = device.create_file(
            "/system/kernel", FileKind.OS_SYSTEM, size_bytes=900,
        )
        device.run_daemon()
        from repro.host.hints import Placement

        assert device.placement.placement_of(record) is Placement.SYS

    def test_scrub_rescues_worn_spare_data(self, device):
        for i in range(4):
            add_junk_photo(device, f"junk{i}", cloud=True)
        device.advance_time(0.05)
        device.run_daemon()  # demote to spare
        # wear out all spare blocks
        for block in device.chip.blocks:
            if block.mode.operating_bits == 5:
                block.pec = 1500
        report = device.run_daemon()
        assert report.scrub.pages_endangered > 0
        rescued = (
            report.scrub.pages_repaired_from_cloud + report.scrub.pages_relocated
        )
        assert rescued == report.scrub.pages_endangered

    def test_runs_are_recorded(self, device):
        device.run_daemon()
        device.run_daemon()
        assert len(device.daemon.runs) == 2


class TestSpareFilterOracle:
    """The daemon scrubs exactly the per-LPN ``stream_of`` filter's list."""

    def test_scrub_list_matches_stream_of_filter(self, device, monkeypatch):
        for i in range(5):
            add_junk_photo(device, f"junk{i}")
        add_keeper(device, "keeper")
        device.create_file("/system/kernel", FileKind.OS_SYSTEM, size_bytes=900)
        device.advance_time(0.05)
        seen = []
        scrub = device.scrubber.scrub

        def spy(lpns):
            extents = [
                lpn for record in device.filesystem.live_files() for lpn in record.extents
            ]
            seen.append((lpns, spare_filter(device.ftl, "spare", extents), extents))
            return scrub(lpns)

        monkeypatch.setattr(device.scrubber, "scrub", spy)
        device.run_daemon()
        device.run_daemon()
        assert len(seen) == 2
        for lpns, want, extents in seen:
            assert lpns == want
            assert all(type(lpn) is int for lpn in lpns)
            assert want and len(want) < len(extents)

    def test_residency_query_matches_filter_on_odd_lpns(self, device):
        for i in range(3):
            add_junk_photo(device, f"junk{i}")
        device.create_file("/system/kernel", FileKind.OS_SYSTEM, size_bytes=900)
        device.advance_time(0.05)
        device.run_daemon()
        spare = spare_filter(
            device.ftl, "spare",
            [lpn for r in device.filesystem.live_files() for lpn in r.extents],
        )
        sys_lpns = [
            lpn for r in device.filesystem.live_files() for lpn in r.extents
            if device.ftl.stream_of(lpn) == "sys"
        ]
        assert spare and sys_lpns
        assert not device.ftl.page_map.is_mapped(10_000)
        lpns = [-3, spare[0], 2**40, 10_000] + spare[::-1] + sys_lpns + [spare[0], -1]
        got, flats = device.ftl.resident(lpns, "spare")
        assert got.tolist() == spare_filter(device.ftl, "spare", lpns)
        ppb = device.chip.geometry.pages_per_block
        assert [(f // ppb, f % ppb) for f in flats.tolist()] == [
            device.ftl.page_map.lookup(lpn) for lpn in got.tolist()
        ]
