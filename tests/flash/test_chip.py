"""Chip-level addressing, capacity, and management operations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.flash.cell import CellTechnology, native_mode, pseudo_mode
from repro.flash.chip import FlashChip
from repro.flash.geometry import SMALL_GEOMETRY, Geometry


class TestConstruction:
    def test_block_count_matches_geometry(self, plc_chip):
        assert len(plc_chip.blocks) == SMALL_GEOMETRY.total_blocks

    def test_initial_capacity_is_full(self, plc_chip):
        assert plc_chip.usable_capacity_bytes() == SMALL_GEOMETRY.capacity_bytes

    def test_mode_technology_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FlashChip(
                SMALL_GEOMETRY, CellTechnology.PLC, mode=native_mode(CellTechnology.TLC)
            )

    def test_chip_can_start_in_pseudo_mode(self):
        chip = FlashChip(
            SMALL_GEOMETRY, CellTechnology.PLC, mode=pseudo_mode(CellTechnology.PLC, 4)
        )
        # capacity quantizes to whole pages per block
        pages = int(SMALL_GEOMETRY.pages_per_block * 4 / 5)
        expected = pages * SMALL_GEOMETRY.page_size_bytes * SMALL_GEOMETRY.total_blocks
        assert chip.usable_capacity_bytes() == expected


class TestOperations:
    def test_program_read_roundtrip_on_fresh_tlc(self, tlc_chip):
        payload = b"hello world".ljust(SMALL_GEOMETRY.page_size_bytes, b".")
        tlc_chip.program((3, 0), payload)
        assert tlc_chip.read_clean((3, 0)) == payload

    def test_retire_shrinks_capacity(self, plc_chip):
        """§4.3 capacity variance: retirement reduces usable capacity."""
        before = plc_chip.usable_capacity_bytes()
        plc_chip.retire_block(0)
        after = plc_chip.usable_capacity_bytes()
        assert after == before - SMALL_GEOMETRY.block_size_bytes
        assert plc_chip.retired_count() == 1

    def test_reconfigure_shrinks_capacity_proportionally(self, plc_chip):
        before = plc_chip.usable_capacity_bytes()
        plc_chip.reconfigure_block(0, pseudo_mode(CellTechnology.PLC, 3))
        kept_pages = int(SMALL_GEOMETRY.pages_per_block * 3 / 5)
        lost = (SMALL_GEOMETRY.pages_per_block - kept_pages) * SMALL_GEOMETRY.page_size_bytes
        assert plc_chip.usable_capacity_bytes() == before - lost

    def test_live_blocks_excludes_retired(self, plc_chip):
        plc_chip.retire_block(5)
        indices = np.flatnonzero(~plc_chip.arrays.retired).tolist()
        assert 5 not in indices
        assert len(indices) == SMALL_GEOMETRY.total_blocks - 1

    def test_advance_time_propagates_to_blocks(self, plc_chip):
        plc_chip.advance_time(1.5)
        assert plc_chip.now_years == 1.5
        plc_chip.blocks[0].program(0, b"x")
        assert plc_chip.blocks[0].page_info(0).written_at_years == 1.5

    def test_time_monotonic(self, plc_chip):
        plc_chip.advance_time(1.0)
        with pytest.raises(ValueError):
            plc_chip.advance_time(0.9)

    def test_wear_summaries(self, plc_chip):
        plc_chip.erase(0)
        plc_chip.erase(0)
        plc_chip.erase(1)
        assert plc_chip.max_pec() == 2
        assert plc_chip.mean_pec() == pytest.approx(3 / SMALL_GEOMETRY.total_blocks)


class TestGeometry:
    def test_capacity_arithmetic(self):
        g = Geometry(page_size_bytes=4096, pages_per_block=64, blocks_per_plane=16,
                     planes_per_die=2, dies=2)
        assert g.total_blocks == 64
        assert g.block_size_bytes == 4096 * 64
        assert g.capacity_bytes == 4096 * 64 * 64
        assert g.total_pages == 64 * 64

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            Geometry(page_size_bytes=0)
        with pytest.raises(ValueError):
            Geometry(dies=0)
