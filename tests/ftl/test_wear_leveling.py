"""Static wear leveler behaviour, including the disabled mode."""

from __future__ import annotations

import numpy as np

from repro.flash.cell import CellTechnology
from repro.flash.chip import FlashChip
from repro.flash.geometry import SMALL_GEOMETRY
from repro.ftl.mapping import PageMap
from repro.ftl.wear_leveling import WearLevelerConfig, pick_cold_victim


def make_pool(pecs: list[int], valid: list[int]):
    """The first ``len(pecs)`` blocks of a chip as the candidate pool."""
    chip = FlashChip(SMALL_GEOMETRY, CellTechnology.TLC, seed=0)
    page_map = PageMap(SMALL_GEOMETRY.total_blocks, SMALL_GEOMETRY.pages_per_block)
    for i, (pec, v) in enumerate(zip(pecs, valid)):
        chip.blocks[i].pec = pec
        for p in range(v):
            chip.program((i, p), b"x")
            page_map.record_writes([i * 10 + p], i, p)
    return np.arange(len(pecs)), chip, page_map


def nominate(config: WearLevelerConfig, pool) -> int | None:
    blocks, chip, page_map = pool
    return pick_cold_victim(config, blocks, chip.arrays, page_map)


class TestDisabled:
    def test_disabled_never_nominates(self):
        """§4.3: wear leveling off on SPARE -- no migrations, ever."""
        pool = make_pool([0, 500], [4, 4])
        assert nominate(WearLevelerConfig(enabled=False), pool) is None


class TestEnabled:
    def test_below_threshold_no_action(self):
        config = WearLevelerConfig(enabled=True, pec_spread_threshold=100)
        assert nominate(config, make_pool([0, 50], [4, 4])) is None

    def test_above_threshold_nominates_least_worn_holder(self):
        config = WearLevelerConfig(enabled=True, pec_spread_threshold=20)
        assert nominate(config, make_pool([5, 100, 60], [3, 3, 3])) == 0

    def test_empty_blocks_not_nominated(self):
        """Migrating an empty block is pointless; pick a data holder."""
        config = WearLevelerConfig(enabled=True, pec_spread_threshold=20)
        assert nominate(config, make_pool([5, 100, 30], [0, 2, 2])) == 2

    def test_retired_blocks_ignored(self):
        config = WearLevelerConfig(enabled=True, pec_spread_threshold=20)
        pool = make_pool([5, 100], [2, 2])
        pool[1].retire_block(0)
        # only one live block left: no spread to level
        assert nominate(config, pool) is None

    def test_single_block_no_action(self):
        assert nominate(WearLevelerConfig(enabled=True), make_pool([500], [2])) is None
