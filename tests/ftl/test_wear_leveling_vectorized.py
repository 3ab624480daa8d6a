"""Production wear-leveling nomination vs the per-block oracle.

``ftl_oracles.scan_cold_victim`` (the per-block scan) is the pinned
semantics; ``pick_cold_victim`` must nominate the *identical* block for
any pool: random PEC drawn from a few levels (so the least-worn holders
often tie, and ties must go to the lowest block index), random valid
counts, retired blocks, an open block left out of the candidates, and
candidates in any order.
"""

from __future__ import annotations

import numpy as np
import pytest

from ftl_oracles import scan_cold_victim
from repro.flash.cell import CellTechnology
from repro.flash.chip import FlashChip
from repro.flash.geometry import Geometry
from repro.ftl.mapping import PageMap
from repro.ftl.wear_leveling import WearLevelerConfig, pick_cold_victim

GEOM = Geometry(page_size_bytes=512, pages_per_block=8, blocks_per_plane=16,
                planes_per_die=1, dies=1)
SEEDS = range(40)


def _random_pool(seed: int):
    """A chip, page map, leveler config and candidate set, all random.

    Pages are placed through the real program path so the per-block
    views the oracle reads and the arrays the selector reads agree.
    """
    rng = np.random.default_rng(seed)
    chip = FlashChip(GEOM, CellTechnology.TLC, seed=seed)
    page_map = PageMap(GEOM.total_blocks, GEOM.pages_per_block)
    chip.arrays.pec[:] = rng.choice([0, 10, 25, 40], GEOM.total_blocks)
    lpn = 0
    for block in range(GEOM.total_blocks):
        n = int(rng.integers(0, GEOM.pages_per_block + 1))
        chip.blocks[block].program_analytic_many(n)
        page_map.record_writes(np.arange(lpn, lpn + n), block, 0)
        lpn += n
    # valid counts independent of fill levels: some holders end up empty
    for dead in rng.choice(lpn, lpn // 2, replace=False).tolist():
        page_map.invalidate(dead)
    for block in rng.choice(GEOM.total_blocks, int(rng.integers(0, 4)), replace=False):
        chip.retire_block(int(block))
    config = WearLevelerConfig(
        enabled=bool(rng.random() < 0.9),
        pec_spread_threshold=int(rng.choice([0, 20, 30, 50])),
    )
    # a stream's blocks ascend; the open block is not a candidate
    stream = np.flatnonzero(rng.random(GEOM.total_blocks) < 0.8)
    open_block = int(rng.choice(stream)) if stream.size else -1
    candidates = stream[stream != open_block]
    return chip, page_map, config, candidates, rng


@pytest.mark.parametrize("seed", SEEDS)
def test_vectorized_victim_matches_per_block_oracle(seed):
    chip, page_map, config, candidates, rng = _random_pool(seed)
    oracle = scan_cold_victim(
        config, [(i, chip.blocks[i]) for i in candidates.tolist()], page_map
    )
    assert pick_cold_victim(config, candidates, chip.arrays, page_map) == oracle
    shuffled = rng.permutation(candidates)
    assert pick_cold_victim(config, shuffled, chip.arrays, page_map) == oracle


def test_random_pools_reach_every_outcome():
    """The seeds above nominate victims, decide PEC ties, and decline."""
    victims = ties = declined = 0
    for seed in SEEDS:
        chip, page_map, config, candidates, _ = _random_pool(seed)
        victim = pick_cold_victim(config, candidates, chip.arrays, page_map)
        if victim is None:
            declined += 1
            continue
        victims += 1
        live = candidates[~chip.arrays.retired[candidates]]
        holders = live[page_map.valid_counts(live) > 0]
        ties += int(np.count_nonzero(chip.arrays.pec[holders] == chip.arrays.pec[victim]) > 1)
    assert victims >= 10 and ties >= 5 and declined >= 5


def test_ties_break_to_lowest_block_index():
    chip = FlashChip(GEOM, CellTechnology.TLC, seed=0)
    page_map = PageMap(GEOM.total_blocks, GEOM.pages_per_block)
    for block in range(GEOM.total_blocks):
        chip.blocks[block].program_analytic_many(1)
        page_map.record_writes([block], block, 0)
    chip.arrays.pec[:] = 100
    chip.arrays.pec[[3, 7, 11]] = 0
    config = WearLevelerConfig(enabled=True, pec_spread_threshold=20)
    reversed_blocks = np.arange(GEOM.total_blocks)[::-1].copy()
    assert pick_cold_victim(config, reversed_blocks, chip.arrays, page_map) == 3
    candidates = [(i, chip.blocks[i]) for i in range(GEOM.total_blocks)]
    assert scan_cold_victim(config, candidates, page_map) == 3
