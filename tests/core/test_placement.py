"""Placement engine: hints, conservatism gate, promote/demote flows."""

from __future__ import annotations

import pytest

from repro.core.partitions import build_partitions
from repro.core.config import default_config
from repro.core.placement import PlacementEngine
from repro.core.sos_device import SOSDevice
from repro.host.block_layer import BlockLayer
from repro.host.files import FileAttributes, FileKind, FileRecord
from repro.host.hints import Placement, PlacementHint


@pytest.fixture
def engine():
    device = build_partitions(default_config())
    layer = BlockLayer(device.ftl)
    return PlacementEngine(layer), layer


def make_file(file_id=1, npages=3, layer=None) -> FileRecord:
    record = FileRecord(
        file_id=file_id, path=f"/f{file_id}", kind=FileKind.PHOTO, size_bytes=1000,
        attributes=FileAttributes(),
    )
    if layer is not None:
        for i in range(npages):
            lpn = file_id * 100 + i
            layer.write_page(lpn, b"payload")
            record.extents.append(lpn)
    return record


class TestHints:
    def test_demotion_moves_all_extents(self, engine):
        placement, layer = engine
        record = make_file(layer=layer)
        moved = placement.apply_hint(
            record, PlacementHint(record.file_id, Placement.SPARE, confidence=0.9)
        )
        assert moved
        assert placement.placement_of(record) is Placement.SPARE
        for lpn in record.extents:
            assert layer.ftl.stream_of(lpn) == "spare"
        assert placement.stats.demotions == 1
        assert placement.stats.pages_moved == 3

    def test_low_confidence_demotion_ignored(self, engine):
        """Second conservatism gate (§4.2/§4.3)."""
        placement, layer = engine
        record = make_file(layer=layer)
        moved = placement.apply_hint(
            record, PlacementHint(record.file_id, Placement.SPARE, confidence=0.3)
        )
        assert not moved
        assert placement.placement_of(record) is Placement.SYS
        assert placement.stats.hints_ignored_low_confidence == 1

    def test_same_placement_hint_is_noop(self, engine):
        placement, layer = engine
        record = make_file(layer=layer)
        moved = placement.apply_hint(
            record, PlacementHint(record.file_id, Placement.SYS, confidence=1.0)
        )
        assert not moved

    def test_promotion_always_honoured(self, engine):
        """Promotions ignore the confidence gate."""
        placement, layer = engine
        record = make_file(layer=layer)
        placement.apply_hint(
            record, PlacementHint(record.file_id, Placement.SPARE, confidence=0.9)
        )
        placement.apply_hint(
            record, PlacementHint(record.file_id, Placement.SYS, confidence=0.3)
        )
        assert placement.placement_of(record) is Placement.SYS
        for lpn in record.extents:
            assert layer.ftl.stream_of(lpn) == "sys"
        assert placement.stats.promotions == 1

    def test_mismatched_hint_rejected(self, engine):
        placement, layer = engine
        record = make_file(layer=layer)
        with pytest.raises(ValueError):
            placement.apply_hint(record, PlacementHint(999, Placement.SPARE, 0.9))

    def test_spare_files_filter(self, engine):
        placement, layer = engine
        a = make_file(file_id=1, layer=layer)
        b = make_file(file_id=2, layer=layer)
        placement.apply_hint(a, PlacementHint(1, Placement.SPARE, confidence=0.9))
        assert placement.spare_files([a, b]) == [a]


class TestPageMapIsTheRecord:
    """A file's placement is what the FTL's page map says, however the
    pages got there."""

    def test_file_without_extents_is_sys(self, engine):
        placement, _ = engine
        assert placement.placement_of(make_file()) is Placement.SYS

    def test_partly_demoted_file_is_sys(self, engine):
        placement, layer = engine
        record = make_file(layer=layer)
        layer.relocate(record.extents[0], Placement.SPARE)
        assert placement.placement_of(record) is Placement.SYS
        assert placement.spare_files([record]) == []

    def test_file_moved_by_the_block_layer_is_spare_and_promoted(self):
        device = SOSDevice(default_config(seed=4))
        record = device.create_file(
            "/docs/tax-return.pdf", FileKind.DOCUMENT, size_bytes=900,
            attributes=FileAttributes(user_favorite=True, access_count=150),
        )
        for lpn in record.extents:
            device.block_layer.relocate(lpn, Placement.SPARE)
        assert device.placement.placement_of(record) is Placement.SPARE
        assert device.placement.spare_files([record]) == [record]
        assert device.snapshot().spare_file_count == 1
        hint = device.classifier.classify(record, device.now_years)
        assert hint.placement is Placement.SYS
        report = device.run_daemon()
        assert report.files_moved == 1
        assert device.placement.stats.promotions == 1
        assert [device.ftl.stream_of(lpn) for lpn in record.extents] == ["sys"] * len(
            record.extents
        )
        assert device.placement.placement_of(record) is Placement.SYS
        assert device.snapshot().spare_file_count == 0
