"""UFS LUN frontend: descriptors, write-buffer semantics, power loss."""

from __future__ import annotations

import pytest

from repro.core.config import default_config
from repro.core.partitions import build_partitions
from repro.host.ufs import WRITE_BUFFER_PAGES, LunConfig, UfsDevice, UfsError


@pytest.fixture
def ufs():
    device = build_partitions(default_config(seed=41))
    ftl = device.ftl
    luns = [
        LunConfig(lun_id=0, name="system", stream="sys",
                  reliable_writes=True, bootable=True),
        LunConfig(lun_id=1, name="userdata", stream="spare",
                  reliable_writes=False),
    ]
    return UfsDevice(ftl, luns), device


class TestProvisioning:
    def test_descriptors(self, ufs):
        device, _ = ufs
        descriptors = device.luns()
        assert [d.lun_id for d in descriptors] == [0, 1]
        assert descriptors[0].reliable_writes
        assert descriptors[0].bootable
        assert not descriptors[1].reliable_writes

    def test_unknown_stream_rejected(self, ufs):
        _, partitioned = ufs
        with pytest.raises(ValueError):
            UfsDevice(partitioned.ftl, [
                LunConfig(lun_id=0, name="x", stream="nope", reliable_writes=True)
            ])

    def test_duplicate_lun_ids_rejected(self, ufs):
        _, partitioned = ufs
        with pytest.raises(ValueError):
            UfsDevice(partitioned.ftl, [
                LunConfig(0, "a", "sys", True),
                LunConfig(0, "b", "spare", False),
            ])

    def test_unknown_lun_errors(self, ufs):
        device, _ = ufs
        with pytest.raises(UfsError):
            device.read(9, 0)


class TestDataPath:
    def test_reliable_write_hits_flash_immediately(self, ufs):
        device, partitioned = ufs
        device.write(0, 5, b"critical")
        assert partitioned.ftl.page_map.is_mapped(5)
        assert device.read(0, 5)[:8] == b"critical"

    def test_buffered_write_defers_flash(self, ufs):
        device, partitioned = ufs
        device.write(1, 7, b"media")
        assert not partitioned.ftl.page_map.is_mapped(7)
        assert device.read(1, 7) == b"media"  # served from buffer

    def test_buffer_spills_when_full(self, ufs):
        device, partitioned = ufs
        for i in range(WRITE_BUFFER_PAGES + 1):
            device.write(1, 100 + i, b"x")
        assert len(partitioned.ftl.page_map.all_mapped_lpns()) >= WRITE_BUFFER_PAGES

    def test_sync_flushes(self, ufs):
        device, partitioned = ufs
        device.write(1, 7, b"media")
        flushed = device.sync(1)
        assert flushed == 1
        assert partitioned.ftl.page_map.is_mapped(7)

    def test_trim_clears_everywhere(self, ufs):
        device, partitioned = ufs
        device.write(1, 7, b"media")
        device.sync(1)
        device.trim(1, 7)
        assert not partitioned.ftl.page_map.is_mapped(7)
        with pytest.raises(UfsError):
            device.read(1, 7)


class TestPowerLoss:
    def test_reliable_lun_loses_nothing(self, ufs):
        device, _ = ufs
        device.write(0, 5, b"critical")
        lost = device.power_cut()
        assert lost[0] == 0
        assert device.read(0, 5)[:8] == b"critical"

    def test_normal_lun_loses_unsynced_writes(self, ufs):
        """§4.3: varying reliability during power failures -- the SPARE
        LUN may lose recently buffered media, which its contract allows."""
        device, _ = ufs
        device.write(1, 7, b"media")
        lost = device.power_cut()
        assert lost[1] == 1
        with pytest.raises(UfsError):
            device.read(1, 7)

    def test_synced_writes_survive_power_cut(self, ufs):
        device, _ = ufs
        device.write(1, 7, b"media")
        device.sync()
        lost = device.power_cut()
        assert lost[1] == 0
        assert device.read(1, 7)[:5] == b"media"


class TestDynamicCapacity:
    def test_capacity_shrinks_with_retired_blocks(self, ufs):
        """§4.3: dynamic device capacity surfaces wear to the host."""
        device, partitioned = ufs
        before = device.describe(1).capacity_pages
        stream = partitioned.ftl.stream("spare")
        victim = stream.free.pop()
        partitioned.chip.retire_block(victim)
        after = device.describe(1).capacity_pages
        assert after < before
