"""FTL engine: writes, reads, GC, streams, health, relocation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ecc.policy import POLICIES, ProtectionLevel
from repro.flash.cell import CellTechnology, native_mode, pseudo_mode
from repro.flash.chip import FlashChip
from repro.flash.geometry import SMALL_GEOMETRY, Geometry
from repro.ftl.ftl import Ftl, OutOfSpaceError
from repro.ftl.streams import StreamConfig
from repro.ftl.wear_leveling import WearLevelerConfig


def make_ftl(seed=0, sys_protection=ProtectionLevel.STRONG,
             spare_protection=ProtectionLevel.NONE):
    chip = FlashChip(SMALL_GEOMETRY, CellTechnology.PLC, seed=seed)
    total = SMALL_GEOMETRY.total_blocks
    streams = [
        StreamConfig("sys", pseudo_mode(CellTechnology.PLC, 4), POLICIES[sys_protection]),
        StreamConfig(
            "spare",
            native_mode(CellTechnology.PLC),
            POLICIES[spare_protection],
            wear_leveling=WearLevelerConfig(enabled=False),
        ),
    ]
    blocks = {"sys": list(range(total // 2)), "spare": list(range(total // 2, total))}
    return Ftl(chip, streams, blocks), chip


def make_analytic_ftl(blocks=6, pages_per_block=4, analytic=True):
    """A one-stream unprotected device, on the analytic chip path unless
    ``analytic=False`` (then the same device runs bit-exact)."""
    geometry = Geometry(page_size_bytes=512, pages_per_block=pages_per_block,
                        blocks_per_plane=blocks, planes_per_die=1, dies=1)
    chip = FlashChip(geometry, CellTechnology.TLC, seed=0)
    stream = StreamConfig("data", native_mode(CellTechnology.TLC),
                          POLICIES[ProtectionLevel.NONE])
    ftl = Ftl(chip, [stream], {"data": list(range(blocks))}, analytic=analytic)
    assert ftl.stream("data").analytic is analytic
    return ftl


class TestConstruction:
    def test_overlapping_blocks_rejected(self):
        chip = FlashChip(SMALL_GEOMETRY, CellTechnology.PLC)
        streams = [
            StreamConfig("a", native_mode(CellTechnology.PLC), POLICIES[ProtectionLevel.NONE]),
            StreamConfig("b", native_mode(CellTechnology.PLC), POLICIES[ProtectionLevel.NONE]),
        ]
        with pytest.raises(ValueError):
            Ftl(chip, streams, {"a": [0, 1], "b": [1, 2]})

    def test_stream_name_mismatch_rejected(self):
        chip = FlashChip(SMALL_GEOMETRY, CellTechnology.PLC)
        streams = [
            StreamConfig("a", native_mode(CellTechnology.PLC), POLICIES[ProtectionLevel.NONE])
        ]
        with pytest.raises(ValueError):
            Ftl(chip, streams, {"x": [0]})

    def test_blocks_reconfigured_to_stream_mode(self):
        ftl, chip = make_ftl()
        assert chip.blocks[0].mode == pseudo_mode(CellTechnology.PLC, 4)
        assert chip.blocks[SMALL_GEOMETRY.total_blocks - 1].mode == native_mode(
            CellTechnology.PLC
        )


class TestIO:
    def test_write_read_roundtrip(self, rng):
        ftl, _ = make_ftl()
        payload = rng.bytes(ftl.logical_page_bytes("sys"))
        ftl.write(10, payload, "sys")
        assert ftl.read(10).payload == payload
        assert ftl.stream_of(10) == "sys"

    def test_read_unmapped_raises(self):
        ftl, _ = make_ftl()
        with pytest.raises(KeyError):
            ftl.read(999)

    def test_oversized_payload_rejected(self):
        ftl, _ = make_ftl()
        with pytest.raises(ValueError):
            ftl.write(0, b"x" * (ftl.logical_page_bytes("sys") + 1), "sys")

    def test_trim_unmaps(self, rng):
        ftl, _ = make_ftl()
        ftl.write(3, rng.bytes(16), "sys")
        ftl.trim(3)
        assert ftl.stream_of(3) is None
        with pytest.raises(KeyError):
            ftl.read(3)

    def test_overwrite_moves_between_streams(self, rng):
        """Writing an existing LPN to another stream invalidates the old
        copy and accounts it to the new stream."""
        ftl, _ = make_ftl()
        ftl.write(5, rng.bytes(16), "sys")
        ftl.write(5, rng.bytes(16), "spare")
        assert ftl.stream_of(5) == "spare"
        assert ftl.stream_live_pages("sys") == 0
        assert ftl.stream_live_pages("spare") == 1


class TestGarbageCollection:
    def test_sustained_overwrites_trigger_gc_and_stay_correct(self, rng):
        ftl, chip = make_ftl()
        reference = {}
        for i in range(600):
            lpn = int(rng.integers(0, 30))
            payload = rng.bytes(ftl.logical_page_bytes("sys"))
            ftl.write(lpn, payload, "sys")
            reference[lpn] = payload
        assert ftl.stats.gc_erases > 0
        for lpn, payload in reference.items():
            assert ftl.read(lpn).payload.startswith(payload)

    def test_out_of_space_when_stream_full_of_valid_data(self, rng):
        ftl, _ = make_ftl()
        pages = ftl.stream_capacity_pages("spare")
        with pytest.raises(OutOfSpaceError):
            for lpn in range(pages + 10):
                ftl.write(10_000 + lpn, rng.bytes(64), "spare")

    def test_gc_preserves_data_across_streams_independently(self, rng):
        ftl, _ = make_ftl()
        sys_ref = {}
        spare_ref = {}
        for i in range(250):
            lpn = int(rng.integers(0, 12))
            p1 = rng.bytes(ftl.logical_page_bytes("sys"))
            ftl.write(lpn, p1, "sys")
            sys_ref[lpn] = p1
            lpn2 = 500 + int(rng.integers(0, 12))
            p2 = rng.bytes(ftl.logical_page_bytes("spare"))
            ftl.write(lpn2, p2, "spare")
            spare_ref[lpn2] = p2
        for lpn, payload in sys_ref.items():
            assert ftl.read(lpn).payload.startswith(payload)
        # spare is unprotected: allow rare fresh-silicon bit flips
        mismatches = sum(
            1 for lpn, payload in spare_ref.items() if ftl.read(lpn).payload != payload
        )
        assert mismatches <= 2


class TestRelocation:
    def test_relocate_changes_stream(self, rng):
        ftl, _ = make_ftl()
        payload = rng.bytes(ftl.logical_page_bytes("sys"))
        ftl.write(8, payload, "sys")
        result = ftl.relocate(8, "spare")
        assert result.payload == payload
        assert ftl.stream_of(8) == "spare"
        assert ftl.read(8).payload[: len(payload)] == payload


class TestHealth:
    def test_health_check_retires_worn_free_blocks(self):
        from repro.ftl.bad_blocks import BlockHealthPolicy

        chip = FlashChip(SMALL_GEOMETRY, CellTechnology.PLC, seed=1)
        total = SMALL_GEOMETRY.total_blocks
        health = BlockHealthPolicy(max_rber=4e-4, retention_horizon_years=1.0)
        streams = [
            StreamConfig(
                "spare",
                native_mode(CellTechnology.PLC),
                POLICIES[ProtectionLevel.NONE],
                health=health,
            )
        ]
        ftl = Ftl(chip, streams, {"spare": list(range(total))})
        for block in chip.blocks[:4]:
            block.pec = 100_000  # far beyond any budget
        ftl.check_stream_health("spare")
        assert ftl.stats.blocks_retired == 4
        assert ftl.stream_capacity_pages("spare") == (total - 4) * SMALL_GEOMETRY.pages_per_block

    def test_health_check_resuscitates_when_ladder_allows(self):
        from repro.flash.error_model import ErrorModel
        from repro.ftl.bad_blocks import BlockHealthPolicy

        chip = FlashChip(SMALL_GEOMETRY, CellTechnology.PLC, seed=1)
        total = SMALL_GEOMETRY.total_blocks
        health = BlockHealthPolicy(
            max_rber=4e-4,
            retention_horizon_years=1.0,
            resuscitation_modes=(pseudo_mode(CellTechnology.PLC, 3),),
        )
        streams = [
            StreamConfig(
                "spare",
                native_mode(CellTechnology.PLC),
                POLICIES[ProtectionLevel.NONE],
                health=health,
            )
        ]
        ftl = Ftl(chip, streams, {"spare": list(range(total))})
        worn = int(
            ErrorModel(native_mode(CellTechnology.PLC)).pec_for_rber(4e-4, 1.0)
        ) + 20
        chip.blocks[0].pec = worn
        ftl.check_stream_health("spare")
        assert ftl.stats.blocks_resuscitated == 1
        assert chip.blocks[0].mode == pseudo_mode(CellTechnology.PLC, 3)


class TestWearLevelingIntegration:
    def test_wl_disabled_stream_never_migrates(self, rng):
        ftl, _ = make_ftl()
        for i in range(200):
            ftl.write(700 + (i % 10), rng.bytes(64), "spare")
        moved = ftl.run_wear_leveling("spare")
        assert moved == 0
        assert ftl.stats.wl_migrations == 0

    def test_wl_enabled_stream_migrates_on_spread(self, rng):
        ftl, chip = make_ftl()
        # fill several sys blocks with cold valid data
        for lpn in range(30):
            ftl.write(lpn, rng.bytes(64), "sys")
        # another sys block becomes much more worn
        stream = ftl.stream("sys")
        worn_index = stream.free[0]
        chip.blocks[worn_index].pec = 100
        moved = ftl.run_wear_leveling("sys")
        assert moved >= 1
        assert ftl.stats.wl_migrations >= 1
        # data survives the migration
        assert ftl.read(0).payload[:64] is not None

    @pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "bit-exact"])
    def test_wl_pass_counts_each_moved_page_once(self, analytic):
        """A WL migration is counted as ``wl_migrations`` only, so
        ``(host + gc + wl) / host`` is the write amplification."""
        ftl = make_analytic_ftl(blocks=8, analytic=analytic)
        ftl.write_many(np.arange(10), "data")
        ftl.chip.blocks[ftl.stream("data").free[-1]].pec = 100
        gc_before, wl_before = ftl.stats.gc_migrations, ftl.stats.wl_migrations
        moved = ftl.run_wear_leveling("data")
        assert moved > 0
        assert ftl.stats.gc_migrations == gc_before
        assert ftl.stats.wl_migrations == wl_before + moved


class TestForceRetire:
    """Fault-injection path: retire a specific block outright."""

    def test_live_data_survives_forced_retirement(self):
        ftl, chip = make_ftl()
        payloads = {lpn: bytes([lpn + 1]) * 8 for lpn in range(6)}
        for lpn, payload in payloads.items():
            ftl.write(lpn, payload, "sys")
        victim = next(
            i for i in ftl.stream("sys").blocks
            if any(True for _ in ftl.page_map.live_lpns(i))
        )
        assert ftl.force_retire("sys", victim)
        assert chip.blocks[victim].retired
        for lpn, payload in payloads.items():
            assert ftl.read(lpn).payload.startswith(payload)

    def test_free_block_retires_without_migration(self):
        ftl, chip = make_ftl()
        victim = ftl.stream("sys").free[0]
        assert ftl.force_retire("sys", victim)
        assert chip.blocks[victim].retired
        assert victim not in ftl.stream("sys").free

    def test_double_retire_is_refused(self):
        ftl, _ = make_ftl()
        victim = ftl.stream("sys").free[0]
        assert ftl.force_retire("sys", victim)
        assert not ftl.force_retire("sys", victim)
        assert ftl.stats.blocks_retired == 1

    def test_foreign_block_rejected(self):
        ftl, _ = make_ftl()
        spare_block = ftl.stream("spare").blocks[0]
        with pytest.raises(ValueError, match="not in stream"):
            ftl.force_retire("sys", spare_block)

    def test_open_block_can_be_force_retired(self):
        ftl, chip = make_ftl()
        ftl.write(0, b"x" * 8, "sys")
        victim = ftl.stream("sys").open_block
        assert victim is not None
        assert ftl.force_retire("sys", victim)
        assert ftl.stream("sys").open_block != victim
        assert ftl.read(0).payload.startswith(b"x" * 8)

    def test_writes_continue_after_forced_retirement(self):
        ftl, _ = make_ftl()
        ftl.write(0, b"a" * 8, "sys")
        ftl.force_retire("sys", ftl.stream("sys").blocks[0])
        ftl.write(1, b"b" * 8, "sys")
        assert ftl.read(1).payload.startswith(b"b" * 8)


class TestStreamOwnership:
    """An LPN belongs to the stream owning the block of its live copy."""

    def test_failed_write_many_keeps_landed_pages_owned(self):
        """A batch that runs out of space mid-way leaves every landed
        page readable and accounted to its stream."""
        ftl = make_analytic_ftl()  # 6 blocks x 4 pages = 24 pages
        with pytest.raises(OutOfSpaceError):
            ftl.write_many(np.arange(28), "data")
        landed = ftl.page_map.all_mapped_lpns()
        assert landed == list(range(24))
        assert ftl.stream_live_pages("data") == 24
        assert ftl.stats.host_writes == 24
        for lpn in landed:
            assert ftl.stream_of(lpn) == "data"
            ftl.read(lpn)
        assert ftl.stats.host_reads == 24
        for lpn in range(24, 28):
            assert ftl.stream_of(lpn) is None


class TestAnalyticPath:
    def test_per_page_ops_match_batched_ops(self):
        """``write``/``read`` on an analytic stream are batches of one."""
        lpns = np.random.default_rng(3).integers(0, 10, 80)
        single, batched = make_analytic_ftl(), make_analytic_ftl()
        for lpn in lpns.tolist():
            single.write(lpn, b"", "data")
        batched.write_many(lpns, "data")
        for lpn in range(12):
            if single.page_map.is_mapped(lpn):
                assert single.read(lpn).payload == b""
        batched.read_many(np.arange(12), "data")
        assert single.stats.gc_erases > 0
        assert single.stats == batched.stats
        assert single.page_map.all_mapped_lpns() == batched.page_map.all_mapped_lpns()
        assert single.chip.arrays.pec.tolist() == batched.chip.arrays.pec.tolist()
        assert single.chip.pages.reads.tolist() == batched.chip.pages.reads.tolist()

    def test_read_disturb_book_keeping_matches_bit_exact_device(self):
        """Analytic reads keep the counters a bit-exact read bumps: per
        page read-disturb counts (the only per-read record), and wear."""
        rng = np.random.default_rng(11)
        fast, exact = make_analytic_ftl(), make_analytic_ftl(analytic=False)
        for _ in range(8):
            writes, reads = rng.integers(0, 14, 12), rng.integers(0, 14, 20)
            for ftl in (fast, exact):
                ftl.write_many(writes, "data")
                ftl.read_many(reads, "data")
        assert fast.stats.gc_erases > 0 and fast.chip.pages.reads.any()
        assert fast.stats == exact.stats
        assert fast.chip.pages.reads.tolist() == exact.chip.pages.reads.tolist()
        assert fast.chip.arrays.pec.tolist() == exact.chip.arrays.pec.tolist()
