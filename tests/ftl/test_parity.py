"""Block parity (§4.2 SYS redundancy) and FTL timing accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ecc.policy import POLICIES, ProtectionLevel
from repro.flash.cell import CellTechnology, pseudo_mode
from repro.flash.chip import FlashChip
from repro.flash.geometry import SMALL_GEOMETRY
from repro.ftl.ftl import Ftl
from repro.ftl.streams import StreamConfig


def _parity_device():
    chip = FlashChip(SMALL_GEOMETRY, CellTechnology.PLC, seed=21)
    streams = [
        StreamConfig("sys", pseudo_mode(CellTechnology.PLC, 4),
                     POLICIES[ProtectionLevel.STRONG]),
    ]
    ftl = Ftl(chip, streams, {"sys": list(range(SMALL_GEOMETRY.total_blocks))})
    return ftl, chip


@pytest.fixture
def parity_ftl():
    return _parity_device()


class TestParityLayout:
    def test_capacity_excludes_parity_pages(self, parity_ftl):
        ftl, chip = parity_ftl
        usable = chip.blocks[0].usable_pages
        expected = (usable - 1) * SMALL_GEOMETRY.total_blocks
        assert ftl.stream_capacity_pages("sys") == expected

    def test_parity_page_sealed_when_block_fills(self, parity_ftl, rng):
        ftl, chip = parity_ftl
        data_pages = chip.blocks[0].usable_pages - 1
        payload = rng.bytes(64)
        for lpn in range(data_pages + 1):  # one more triggers the seal
            ftl.write(lpn, payload, "sys")
        first_block = None
        for i, block in enumerate(chip.blocks):
            if block.free_pages == 0:
                first_block = block
                break
        assert first_block is not None
        assert first_block.is_programmed(first_block.usable_pages - 1)

    def test_parity_page_is_xor_of_data_pages(self, parity_ftl, rng):
        ftl, chip = parity_ftl
        data_pages = chip.blocks[0].usable_pages - 1
        for lpn in range(data_pages + 1):
            ftl.write(lpn, rng.bytes(64), "sys")
        block_index = next(
            i for i, b in enumerate(chip.blocks) if b.free_pages == 0
        )
        block = chip.blocks[block_index]
        acc = bytearray(SMALL_GEOMETRY.page_size_bytes)
        for page in range(block.usable_pages - 1):
            for i, byte in enumerate(block.read_clean(page)):
                acc[i] ^= byte
        assert bytes(acc) == block.read_clean(block.usable_pages - 1)

    def test_batched_writes_match_per_page_writes(self, make_rng):
        """Open-block runs keep each block's last page for its parity:
        ``write_many`` batches that repeat LPNs and run GC leave the same
        pages, parity, mapping, wear and stats as one write per LPN."""
        # fill 240 of the 320 data pages, then overwrite at random: GC
        # migrates live pages around each block's parity page
        space = 240
        lpns = np.concatenate([np.arange(space), make_rng(8).integers(0, space, 720)])
        (per_page, chip_a), (batched, chip_b) = _parity_device(), _parity_device()
        for lpn in lpns.tolist():
            per_page.write(lpn, b"", "sys")
        for batch in np.array_split(lpns, 4):
            batched.write_many(batch, "sys")
        assert batched.stats == per_page.stats
        assert batched.stats.gc_migrations > 0
        assert chip_b.arrays.pec.tolist() == chip_a.arrays.pec.tolist()
        assert [batched.page_map.lookup(lpn) for lpn in range(space)] == [
            per_page.page_map.lookup(lpn) for lpn in range(space)
        ]
        sealed = 0
        for block_a, block_b in zip(chip_a.blocks, chip_b.blocks):
            assert block_b.free_pages == block_a.free_pages
            for page in range(block_a.usable_pages - block_a.free_pages):
                assert block_b.read_clean(page) == block_a.read_clean(page)
            sealed += block_a.free_pages == 0
        assert sealed > 0


class TestParityRecovery:
    def test_recovers_page_beyond_ecc(self, parity_ftl, rng):
        """A page corrupted beyond BCH t=8 is rebuilt from block parity."""
        ftl, chip = parity_ftl
        data_pages = chip.blocks[0].usable_pages - 1
        payloads = {}
        for lpn in range(data_pages + 1):
            payloads[lpn] = rng.bytes(ftl.logical_page_bytes("sys"))
            ftl.write(lpn, payloads[lpn], "sys")
        # find a sealed block and smash one of its data pages
        block_index = next(i for i, b in enumerate(chip.blocks) if b.free_pages == 0)
        block = chip.blocks[block_index]
        victim_page = 0
        victim_lpn = next(
            lpn for page, lpn in ftl.page_map.live_lpns(block_index)
            if page == victim_page
        )
        state = block.page_info(victim_page)
        corrupted = bytearray(state.data.tobytes())
        for i in range(0, 200):  # far beyond t=8 per codeword
            corrupted[i] ^= 0xFF
        state.data = np.frombuffer(bytes(corrupted), dtype=np.uint8).copy()
        result = ftl.read(victim_lpn)
        assert result.payload == payloads[victim_lpn]
        assert ftl.stats.parity_recoveries == 1

    def test_no_recovery_for_unsealed_block(self, parity_ftl, rng):
        """Pages in the open (unsealed) block cannot use parity."""
        ftl, chip = parity_ftl
        payload = rng.bytes(ftl.logical_page_bytes("sys"))
        ftl.write(0, payload, "sys")
        addr = ftl.page_map.lookup(0)
        block = chip.blocks[addr[0]]
        state = block.page_info(addr[1])
        corrupted = bytearray(state.data.tobytes())
        for i in range(200):
            corrupted[i] ^= 0xFF
        state.data = np.frombuffer(bytes(corrupted), dtype=np.uint8).copy()
        result = ftl.read(0)
        assert result.uncorrectable_codewords > 0
        assert ftl.stats.parity_recoveries == 0


class TestTimingAccounting:
    def test_reads_and_writes_accrue_time(self, parity_ftl, rng):
        ftl, _ = parity_ftl
        ftl.write(0, rng.bytes(64), "sys")
        assert ftl.stats.program_time_us > 0
        ftl.read(0)
        assert ftl.stats.read_time_us > 0

    def test_gc_accrues_erase_time(self, parity_ftl, rng):
        ftl, _ = parity_ftl
        for i in range(400):
            ftl.write(int(rng.integers(0, 20)), rng.bytes(64), "sys")
        assert ftl.stats.gc_erases > 0
        assert ftl.stats.erase_time_us > 0

    def test_spare_stream_reads_faster_than_plc_native_program(self, rng):
        """Sanity: per-op times follow the stream's mode."""
        chip = FlashChip(SMALL_GEOMETRY, CellTechnology.PLC, seed=3)
        total = SMALL_GEOMETRY.total_blocks
        streams = [
            StreamConfig("spare", pseudo_mode(CellTechnology.PLC, 1),
                         POLICIES[ProtectionLevel.NONE]),
        ]
        ftl = Ftl(chip, streams, {"spare": list(range(total))})
        ftl.write(0, b"x", "spare")
        pslc_program = ftl.stats.program_time_us
        assert pslc_program == pytest.approx(200.0)  # pseudo-SLC speed
