"""GC victim selection policies.

Every policy case runs both selectors on the same blocks -- the scalar
oracle scan (``ftl_oracles.select_victim``) and the production
masked-argmin selector (``select_victim_arrays``) -- and pins both to
the expected victim.
"""

from __future__ import annotations

import numpy as np

from ftl_oracles import select_victim
from repro.flash.block import Block, BlockArrays
from repro.flash.cell import CellTechnology, native_mode
from repro.flash.geometry import SMALL_GEOMETRY
from repro.ftl.gc import GcPolicy, select_victim_arrays
from repro.ftl.mapping import PageMap


def make_candidates(valid_counts: list[int], rng_seed: int = 0):
    """Blocks fully programmed, with the given number of live pages each.

    The blocks share one :class:`BlockArrays`, the production selector's
    view of their state.
    """
    rng = np.random.default_rng(rng_seed)
    page_map = PageMap(total_blocks=len(valid_counts), pages_per_block=8)
    arrays = BlockArrays(len(valid_counts))
    blocks = []
    for b, valid in enumerate(valid_counts):
        block = Block(SMALL_GEOMETRY, native_mode(CellTechnology.TLC), rng,
                      arrays=arrays, index=b)
        for p in range(8):
            block.program(p, b"x")
        for p in range(valid):
            page_map.record_writes([b * 100 + p], b, p)
        blocks.append((b, block))
    return blocks, page_map, arrays


def pick(candidates, page_map, arrays, policy, now_years=0.0):
    """The oracle's victim, after asserting the production selector agrees."""
    oracle = select_victim(candidates, page_map, policy, now_years)
    indices = np.asarray([i for i, _ in candidates], dtype=np.int64)
    production = select_victim_arrays(indices, page_map, policy, now_years, arrays)
    assert production == oracle
    return oracle


class TestGreedy:
    def test_picks_fewest_valid(self):
        candidates, page_map, arrays = make_candidates([5, 2, 7])
        assert pick(candidates, page_map, arrays, GcPolicy.GREEDY) == 1

    def test_skips_fully_valid_blocks(self):
        candidates, page_map, arrays = make_candidates([8, 8, 3])
        assert pick(candidates, page_map, arrays, GcPolicy.GREEDY) == 2

    def test_none_when_everything_fully_valid(self):
        candidates, page_map, arrays = make_candidates([8, 8])
        assert pick(candidates, page_map, arrays, GcPolicy.GREEDY) is None

    def test_skips_retired_blocks(self):
        candidates, page_map, arrays = make_candidates([1, 3])
        candidates[0][1].retire()
        assert pick(candidates, page_map, arrays, GcPolicy.GREEDY) == 1

    def test_empty_candidates(self):
        _, page_map, arrays = make_candidates([1])
        assert pick([], page_map, arrays, GcPolicy.GREEDY) is None


class TestCostBenefit:
    def test_prefers_colder_block_at_equal_utilization(self):
        candidates, page_map, arrays = make_candidates([4, 4])
        # block 0's data is older (written at t=0); block 1 written at t=1
        candidates[1][1].advance_time(1.0)
        candidates[1][1].erase()
        for p in range(8):
            candidates[1][1].program(p, b"y")
        for p in range(4):
            page_map.record_writes([100 + p], 1, p)
        victim = pick(candidates, page_map, arrays, GcPolicy.COST_BENEFIT, now_years=2.0)
        assert victim == 0

    def test_prefers_emptier_block_at_equal_age(self):
        candidates, page_map, arrays = make_candidates([6, 1])
        victim = pick(candidates, page_map, arrays, GcPolicy.COST_BENEFIT, now_years=1.0)
        assert victim == 1

    def test_none_when_nothing_reclaimable(self):
        candidates, page_map, arrays = make_candidates([8])
        assert pick(candidates, page_map, arrays, GcPolicy.COST_BENEFIT) is None
