"""Production GC victim selection vs the scalar oracle.

``ftl_oracles.select_victim`` (the per-candidate scalar scan) is the
pinned semantics; ``select_victim_arrays`` must pick the *identical*
victim -- including lowest-block-index tie-breaking -- for any candidate
state and either policy.  Observer interaction is pinned to one span and
one count per invocation, and to zero registry traffic when disarmed.
"""

from __future__ import annotations

import numpy as np
import pytest

from ftl_oracles import select_victim
from repro.flash.cell import CellTechnology
from repro.flash.chip import FlashChip
from repro.flash.geometry import Geometry
from repro.ftl.gc import GcPolicy, select_victim_arrays
from repro.ftl.mapping import PageMap
from repro.obs import observed

GEOM = Geometry(page_size_bytes=512, pages_per_block=8, blocks_per_plane=16,
                planes_per_die=1, dies=1)


def _random_state(seed: int) -> tuple[FlashChip, PageMap, float]:
    """A chip + page map with randomized wear, age, and valid counts.

    State is built through the real program/trim path (not array pokes)
    so the per-page metadata the scalar scorer reads stays consistent
    with the shared arrays the vectorized scorer gathers from.
    """
    rng = np.random.default_rng(seed)
    chip = FlashChip(GEOM, CellTechnology.TLC, seed=seed)
    page_map = PageMap(GEOM.total_blocks, GEOM.pages_per_block)
    chip.arrays.pec[:] = rng.integers(0, 4000, GEOM.total_blocks)
    write_times = rng.uniform(0.0, 2.0, GEOM.total_blocks)
    pages_per = rng.integers(0, GEOM.pages_per_block + 1, GEOM.total_blocks)
    lpn = 0
    for block in np.argsort(write_times).tolist():  # advance_time is monotonic
        if pages_per[block] == 0:
            continue
        chip.advance_time(float(write_times[block]))
        chip.blocks[block].program_analytic_many(int(pages_per[block]))
        for page in range(int(pages_per[block])):
            page_map.record_writes([lpn], block, page)
            lpn += 1
    now = 2.5
    chip.advance_time(now)
    # vary valid counts independently of fill levels
    for dead in rng.choice(lpn, lpn // 3, replace=False) if lpn else []:
        page_map.invalidate(int(dead))
    for block in rng.choice(GEOM.total_blocks, 2, replace=False):
        chip.retire_block(int(block))
    return chip, page_map, now


@pytest.mark.parametrize("policy", list(GcPolicy))
@pytest.mark.parametrize("seed", range(8))
def test_vectorized_victim_matches_scalar_oracle(policy, seed):
    chip, page_map, now = _random_state(seed)
    candidates = [(i, chip.blocks[i]) for i in range(GEOM.total_blocks)]
    scalar = select_victim(candidates, page_map, policy, now)
    vectorized = select_victim_arrays(
        np.arange(GEOM.total_blocks), page_map, policy, now, chip.arrays
    )
    assert scalar == vectorized


@pytest.mark.parametrize("policy", list(GcPolicy))
def test_ties_break_to_lowest_block_index(policy):
    """Identical scores must pick the lowest index, in either impl,
    regardless of candidate order."""
    chip = FlashChip(GEOM, CellTechnology.TLC, seed=0)
    page_map = PageMap(GEOM.total_blocks, GEOM.pages_per_block)
    # every block identical: 2 valid pages, same wear, same age
    lpn = 0
    for block in range(GEOM.total_blocks):
        for page in range(2):
            page_map.record_writes([lpn], block, page)
            lpn += 1
    reversed_candidates = [
        (i, chip.blocks[i]) for i in reversed(range(GEOM.total_blocks))
    ]
    assert select_victim(reversed_candidates, page_map, policy, 1.0) == 0
    assert select_victim_arrays(
        np.arange(GEOM.total_blocks)[::-1].copy(), page_map, policy, 1.0,
        chip.arrays,
    ) == 0


def test_observer_sees_one_span_and_one_count_per_invocation():
    chip, page_map, now = _random_state(0)
    idx = np.arange(GEOM.total_blocks)
    disarmed = select_victim_arrays(
        idx, page_map, GcPolicy.GREEDY, now, chip.arrays
    )
    with observed(trace=False) as obs:
        for _ in range(3):
            armed = select_victim_arrays(
                idx, page_map, GcPolicy.GREEDY, now, chip.arrays
            )
        snap = obs.registry.snapshot()
    assert armed == disarmed  # observation never changes the choice
    assert snap["spans"]["gc.select_victim"]["calls"] == 3
    eligible = snap["counters"]["gc.candidates_considered"]
    assert eligible > 0 and eligible % 3 == 0

