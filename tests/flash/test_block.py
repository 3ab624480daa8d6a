"""Bit-exact block semantics: NAND rules, modes, error injection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.flash.block import Block, ProgramError
from repro.flash.cell import CellTechnology, native_mode, pseudo_mode
from repro.flash.geometry import SMALL_GEOMETRY


def make_block(mode=None, seed=7) -> Block:
    mode = mode or native_mode(CellTechnology.TLC)
    return Block(SMALL_GEOMETRY, mode, np.random.default_rng(seed))


class TestProgramRules:
    def test_sequential_program_required(self):
        block = make_block()
        block.program(0, b"a")
        with pytest.raises(ProgramError):
            block.program(2, b"c")

    def test_no_rewrite_without_erase(self):
        block = make_block()
        block.program(0, b"a")
        with pytest.raises(ProgramError):
            block.program(0, b"b")

    def test_erase_increments_pec_and_resets(self):
        block = make_block()
        block.program(0, b"a")
        assert block.pec == 0
        block.erase()
        assert block.pec == 1
        assert not block.is_programmed(0)
        block.program(0, b"b")  # reprogram allowed after erase

    def test_oversized_payload_rejected(self):
        block = make_block()
        with pytest.raises(ProgramError):
            block.program(0, b"x" * (SMALL_GEOMETRY.page_size_bytes + 1))

    def test_retired_block_refuses_all_ops(self):
        block = make_block()
        block.retire()
        with pytest.raises(ProgramError):
            block.program(0, b"a")
        with pytest.raises(ProgramError):
            block.erase()

    def test_read_unprogrammed_page_fails(self):
        block = make_block()
        with pytest.raises(ProgramError):
            block.read(0)


class TestPseudoModeCapacity:
    def test_pseudo_mode_exposes_fewer_pages_same_size(self):
        native = make_block(native_mode(CellTechnology.PLC))
        pseudo = make_block(pseudo_mode(CellTechnology.PLC, 4))
        assert pseudo.page_capacity_bytes == native.page_capacity_bytes
        assert pseudo.usable_pages == int(native.usable_pages * 4 / 5)

    def test_program_beyond_usable_pages_fails(self):
        block = make_block(pseudo_mode(CellTechnology.PLC, 1))
        for i in range(block.usable_pages):
            block.program(i, b"d")
        with pytest.raises(ProgramError):
            block.program(block.usable_pages, b"d")

    def test_free_pages_tracks_usable(self):
        block = make_block(pseudo_mode(CellTechnology.PLC, 4))
        assert block.free_pages == block.usable_pages
        block.program(0, b"a")
        assert block.free_pages == block.usable_pages - 1


class TestReconfigure:
    def test_reconfigure_requires_empty_block(self):
        block = make_block(native_mode(CellTechnology.PLC))
        block.program(0, b"a")
        with pytest.raises(ProgramError):
            block.reconfigure(pseudo_mode(CellTechnology.PLC, 3))

    def test_reconfigure_preserves_pec(self):
        block = make_block(native_mode(CellTechnology.PLC))
        for _ in range(5):
            block.erase()
        block.reconfigure(pseudo_mode(CellTechnology.PLC, 3))
        assert block.pec == 5
        assert block.mode.operating_bits == 3

    def test_reconfigure_cannot_change_technology(self):
        block = make_block(native_mode(CellTechnology.PLC))
        with pytest.raises(ProgramError):
            block.reconfigure(native_mode(CellTechnology.TLC))


class TestErrorInjection:
    def test_fresh_slc_reads_clean(self):
        """SLC baseline RBER 1e-8 over a 4 Kb page: errors vanishingly rare."""
        block = make_block(native_mode(CellTechnology.SLC))
        payload = bytes(range(256)) * 2
        block.program(0, payload)
        assert block.read(0)[: len(payload)] == payload

    def test_worn_aged_plc_reads_dirty(self):
        """A PLC block at 3x rated wear reading year-old data must show errors."""
        block = make_block(native_mode(CellTechnology.PLC))
        block.pec = block.rated_pec * 3
        block.program(0, b"\x00" * SMALL_GEOMETRY.page_size_bytes)
        block.advance_time(1.0)
        noisy = block.read(0)
        assert noisy != b"\x00" * SMALL_GEOMETRY.page_size_bytes

    def test_read_clean_is_oracle(self):
        block = make_block(native_mode(CellTechnology.PLC))
        block.pec = block.rated_pec * 3
        payload = b"\xaa" * SMALL_GEOMETRY.page_size_bytes
        block.program(0, payload)
        assert block.read_clean(0) == payload

    def test_rber_now_matches_error_model_shape(self):
        block = make_block(native_mode(CellTechnology.QLC))
        block.program(0, b"a")
        fresh = block.rber_now(0)
        block.advance_time(2.0)
        aged = block.rber_now(0)
        assert aged > fresh

    def test_time_cannot_go_backwards(self):
        block = make_block()
        block.advance_time(1.0)
        with pytest.raises(ValueError):
            block.advance_time(0.5)

    def test_reads_accumulate_disturb_counter(self):
        block = make_block()
        block.program(0, b"a")
        for _ in range(5):
            block.read(0)
        assert block.page_info(0).reads_since_write == 5
