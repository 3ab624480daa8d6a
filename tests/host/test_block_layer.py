"""Block layer: default placement, per-write placement, relocation, capacity."""

from __future__ import annotations

import pytest

from repro.ecc.policy import POLICIES, ProtectionLevel
from repro.flash.cell import CellTechnology, native_mode, pseudo_mode
from repro.flash.chip import FlashChip
from repro.flash.geometry import SMALL_GEOMETRY
from repro.ftl.ftl import Ftl, OutOfSpaceError
from repro.ftl.streams import StreamConfig
from repro.host.block_layer import BlockLayer
from repro.host.hints import Placement, PlacementHint


@pytest.fixture
def layer() -> BlockLayer:
    chip = FlashChip(SMALL_GEOMETRY, CellTechnology.PLC, seed=3)
    total = SMALL_GEOMETRY.total_blocks
    streams = [
        StreamConfig("sys", pseudo_mode(CellTechnology.PLC, 4), POLICIES[ProtectionLevel.STRONG]),
        StreamConfig("spare", native_mode(CellTechnology.PLC), POLICIES[ProtectionLevel.NONE]),
    ]
    ftl = Ftl(
        chip, streams,
        {"sys": list(range(total // 2)), "spare": list(range(total // 2, total))},
    )
    return BlockLayer(ftl)


class TestPlacement:
    def test_default_placement_is_sys(self, layer):
        """§4.4: 'new file data will first be written to high-endurance
        pseudo-QLC memory'."""
        layer.write_page(1, b"data")
        assert layer.ftl.stream_of(1) == "sys"
        assert layer.placement_of(1) is Placement.SYS

    def test_relocate_to_spare_is_sticky(self, layer):
        layer.write_page(1, b"data")
        layer.relocate(1, Placement.SPARE)
        assert layer.ftl.stream_of(1) == "spare"
        # future rewrites honour the sticky placement
        layer.write_page(1, b"data2")
        assert layer.ftl.stream_of(1) == "spare"

    def test_relocate_noop_when_already_there(self, layer):
        layer.write_page(1, b"data")
        writes_before = layer.ftl.stats.host_writes
        layer.relocate(1, Placement.SYS)
        assert layer.ftl.stats.host_writes == writes_before

    def test_relocate_unwritten_lpn_is_left_alone(self, layer):
        """An unmapped LPN has nothing to move: no write, no record."""
        layer.relocate(9, Placement.SPARE)
        assert layer.ftl.stats.host_writes == 0
        assert layer.ftl.stream_of(9) is None
        layer.write_page(9, b"later")
        assert layer.ftl.stream_of(9) == "sys"

    def test_write_with_placement_goes_there(self, layer):
        """§4.3's per-write hint: the write itself names the partition."""
        layer.write_page(9, b"later", placement=Placement.SPARE)
        assert layer.ftl.stream_of(9) == "spare"
        assert layer.placement_of(9) is Placement.SPARE
        layer.write_page(9, b"again", placement=Placement.SYS)
        assert layer.ftl.stream_of(9) == "sys"
        assert layer.read_page(9)[:5] == b"again"

    def test_failed_relocate_keeps_page_map_placement(self, layer):
        """A relocation SPARE cannot absorb leaves the page, and its
        placement, where the page map holds it; once space is freed the
        same relocation moves the page."""
        ftl = layer.ftl
        layer.write_page(1, b"data")
        filler = 1000
        with pytest.raises(OutOfSpaceError):
            while True:  # fill SPARE until the FTL refuses a write
                ftl.write(filler, b"x", "spare")
                filler += 1
        with pytest.raises(OutOfSpaceError):
            layer.relocate(1, Placement.SPARE)
        assert ftl.stream_of(1) == "sys"
        assert layer.placement_of(1) is Placement.SYS
        for lpn in range(1000, 1000 + 2 * ftl.chip.geometry.pages_per_block):
            ftl.trim(lpn)
        layer.relocate(1, Placement.SPARE)
        assert ftl.stream_of(1) == "spare"
        assert layer.placement_of(1) is Placement.SPARE
        assert layer.read_page(1)[:4] == b"data"

    def test_trim_forgets_placement(self, layer):
        layer.write_page(1, b"data")
        layer.relocate(1, Placement.SPARE)
        layer.trim_page(1)
        assert layer.placement_of(1) is Placement.SYS  # back to default


class TestIO:
    def test_roundtrip_through_sys(self, layer, rng):
        payload = rng.bytes(layer.page_bytes)
        layer.write_page(5, payload)
        assert layer.read_page(5)[: len(payload)] == payload

    def test_page_bytes_is_min_of_streams(self, layer):
        sys_bytes = layer.ftl.logical_page_bytes("sys")
        spare_bytes = layer.ftl.logical_page_bytes("spare")
        assert layer.page_bytes == min(sys_bytes, spare_bytes)

    def test_audited_read_reports_ecc_activity(self, layer, rng):
        layer.write_page(5, rng.bytes(layer.page_bytes))
        result = layer.ftl.read(5)
        assert result.uncorrectable_codewords == 0

    def test_capacity_sums_both_streams(self, layer):
        expected = layer.ftl.stream_capacity_pages("sys") + layer.ftl.stream_capacity_pages(
            "spare"
        )
        assert layer.capacity_pages() == expected


class TestHints:
    def test_hint_confidence_validated(self):
        with pytest.raises(ValueError):
            PlacementHint(file_id=1, placement=Placement.SYS, confidence=1.5)
