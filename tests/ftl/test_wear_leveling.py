"""Static wear leveler behaviour, including the disabled mode."""

from __future__ import annotations

import numpy as np
import pytest

from repro.flash.block import Block
from repro.flash.cell import CellTechnology, native_mode
from repro.flash.geometry import SMALL_GEOMETRY
from repro.ftl.mapping import PageMap
from repro.ftl.wear_leveling import WearLeveler, WearLevelerConfig


def make_pool(pecs: list[int], valid: list[int]):
    rng = np.random.default_rng(0)
    page_map = PageMap(total_blocks=len(pecs), pages_per_block=8)
    candidates = []
    for i, (pec, v) in enumerate(zip(pecs, valid)):
        block = Block(SMALL_GEOMETRY, native_mode(CellTechnology.TLC), rng)
        block.pec = pec
        for p in range(v):
            block.program(p, b"x")
            page_map.record_writes([i * 10 + p], i, p)
        candidates.append((i, block))
    return candidates, page_map


class TestDisabled:
    def test_disabled_never_nominates(self):
        """§4.3: wear leveling off on SPARE -- no migrations, ever."""
        leveler = WearLeveler(WearLevelerConfig(enabled=False))
        candidates, page_map = make_pool([0, 500], [4, 4])
        assert leveler.pick_cold_victim(candidates, page_map) is None
        assert leveler.migrations_triggered == 0


class TestEnabled:
    def test_below_threshold_no_action(self):
        leveler = WearLeveler(WearLevelerConfig(enabled=True, pec_spread_threshold=100))
        candidates, page_map = make_pool([0, 50], [4, 4])
        assert leveler.pick_cold_victim(candidates, page_map) is None

    def test_above_threshold_nominates_least_worn_holder(self):
        leveler = WearLeveler(WearLevelerConfig(enabled=True, pec_spread_threshold=20))
        candidates, page_map = make_pool([5, 100, 60], [3, 3, 3])
        assert leveler.pick_cold_victim(candidates, page_map) == 0
        assert leveler.migrations_triggered == 1

    def test_empty_blocks_not_nominated(self):
        """Migrating an empty block is pointless; pick a data holder."""
        leveler = WearLeveler(WearLevelerConfig(enabled=True, pec_spread_threshold=20))
        candidates, page_map = make_pool([5, 100, 30], [0, 2, 2])
        assert leveler.pick_cold_victim(candidates, page_map) == 2

    def test_retired_blocks_ignored(self):
        leveler = WearLeveler(WearLevelerConfig(enabled=True, pec_spread_threshold=20))
        candidates, page_map = make_pool([5, 100], [2, 2])
        candidates[0][1].retire()
        # only one live block left: no spread to level
        assert leveler.pick_cold_victim(candidates, page_map) is None

    def test_single_block_no_action(self):
        leveler = WearLeveler(WearLevelerConfig(enabled=True))
        candidates, page_map = make_pool([500], [2])
        assert leveler.pick_cold_victim(candidates, page_map) is None
