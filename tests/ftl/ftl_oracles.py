"""Reference implementations the FTL's production paths are pinned to.

``repro.ftl`` has one production implementation per decision: the
masked-argmin GC selector (:func:`repro.ftl.gc.select_victim_arrays`),
the array wear-leveling selector
(:func:`repro.ftl.wear_leveling.pick_cold_victim`) and the numpy
:class:`repro.ftl.mapping.PageMap`.  The simpler designs they replaced
live here, unchanged, as the semantic references:

* :func:`select_victim` -- the per-candidate scalar GC scan with the
  two classic scorers (greedy and cost-benefit);
* :func:`scan_cold_victim` -- the per-block wear-leveling scan;
* :class:`DictPageMap` -- the ``dict[int, PhysicalAddress]`` + per-block
  :class:`BlockUsage` page map.

Tests import this module as ``from ftl_oracles import ...``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.flash.block import Block
from repro.flash.chip import PhysicalAddress
from repro.ftl.gc import GcPolicy
from repro.ftl.mapping import PageMap
from repro.ftl.wear_leveling import WearLevelerConfig
from repro.obs import get_observer

__all__ = ["BlockUsage", "DictPageMap", "scan_cold_victim", "select_victim"]


# -- GC victim selection --------------------------------------------------


def last_write_time_years(block: Block) -> float:
    """Simulation time of a block's newest programmed page (0.0 if empty).

    The per-page definition of the age the production selector reads from
    ``BlockArrays.last_write_years``.
    """
    return max(
        (
            block.page_info(page).written_at_years
            for page in range(block.geometry.pages_per_block)
            if block.is_programmed(page)
        ),
        default=0.0,
    )


def _greedy_score(block_index: int, block: Block, page_map: PageMap, now: float) -> float:
    """Lower is better: valid page count (ties broken by index upstream)."""
    return float(page_map.valid_pages(block_index))


def _cost_benefit_score(
    block_index: int, block: Block, page_map: PageMap, now: float
) -> float:
    """Lower is better: negative of the classic (benefit/cost * age) score.

    utilization u = valid/usable; benefit = (1-u), cost = (1+u) (one read
    + one write per valid page, one erase amortized); age = years since
    the block was last programmed, approximated by the oldest page write
    time.  Wear-awareness: blocks already past rated endurance are
    deprioritized by scaling age down.
    """
    usable = max(1, block.usable_pages)
    u = page_map.valid_pages(block_index) / usable
    if u >= 1.0:
        return float("inf")  # nothing to reclaim
    age = max(0.0, now - last_write_time_years(block))
    wear_penalty = 1.0 / (1.0 + max(0.0, block.wear_ratio - 1.0))
    score = ((1.0 - u) / (1.0 + u)) * (age + 1e-6) * wear_penalty
    return -score


_SCORERS: dict[GcPolicy, Callable[[int, Block, PageMap, float], float]] = {
    GcPolicy.GREEDY: _greedy_score,
    GcPolicy.COST_BENEFIT: _cost_benefit_score,
}


def select_victim(
    candidates: Iterable[tuple[int, Block]],
    page_map: PageMap,
    policy: GcPolicy,
    now_years: float = 0.0,
) -> int | None:
    """Choose a GC victim among ``candidates``; None if no block qualifies.

    Candidates should be full (no free pages) and not retired; blocks that
    are entirely valid are never chosen (no space to reclaim).  Ties are
    broken by the **lowest block index** regardless of candidate order --
    the pinned contract :func:`repro.ftl.gc.select_victim_arrays`
    reproduces with a sorted argmin.

    Observer interaction is one span and one count per *invocation* (never
    per candidate), and a disarmed observer skips span construction
    entirely, keeping the "observability off is free" guarantee on this
    hot path.
    """
    obs = get_observer()
    if not obs.enabled:
        best_index, _considered = _scan_candidates(
            candidates, page_map, policy, now_years
        )
        return best_index
    with obs.span("gc.select_victim"):
        best_index, considered = _scan_candidates(
            candidates, page_map, policy, now_years
        )
    obs.count("gc.candidates_considered", considered)
    return best_index


def _scan_candidates(
    candidates: Iterable[tuple[int, Block]],
    page_map: PageMap,
    policy: GcPolicy,
    now_years: float,
) -> tuple[int | None, int]:
    """Scalar victim scan: (best index, candidates considered)."""
    scorer = _SCORERS[policy]
    best_index: int | None = None
    best_score = float("inf")
    considered = 0
    for block_index, block in candidates:
        if block.retired:
            continue
        valid = page_map.valid_pages(block_index)
        if valid >= block.usable_pages:
            continue
        considered += 1
        score = scorer(block_index, block, page_map, now_years)
        if score < best_score or (
            score == best_score
            and best_index is not None
            and block_index < best_index
        ):
            best_score = score
            best_index = block_index
    return best_index, considered


# -- wear leveling ----------------------------------------------------------


def scan_cold_victim(
    config: WearLevelerConfig,
    candidates: list[tuple[int, Block]],
    page_map: PageMap,
) -> int | None:
    """Nominate the least-worn block holding valid data for forced GC.

    None when leveling is disabled, fewer than two candidates are live
    (not retired), the PEC spread across live candidates is within
    ``config.pec_spread_threshold``, or no live candidate holds valid
    data.  Ties go to the first least-worn holder in ``candidates``
    order: the lowest block index for ascending candidates, which every
    stream's are.
    """
    if not config.enabled:
        return None
    live = [(i, b) for i, b in candidates if not b.retired]
    if len(live) < 2:
        return None
    pecs = [b.pec for _, b in live]
    if max(pecs) - min(pecs) <= config.pec_spread_threshold:
        return None
    # coldest = least-worn block that still holds valid data
    holders = [(i, b) for i, b in live if page_map.valid_pages(i) > 0]
    if not holders:
        return None
    victim_index, _ = min(holders, key=lambda item: item[1].pec)
    return victim_index


# -- page map ---------------------------------------------------------------


@dataclass(slots=True)
class BlockUsage:
    """Reverse-map state for one erase block (dict reference impl)."""

    #: LPN stored at each physical page; None = unwritten or invalidated.
    page_lpns: list[int | None] = field(default_factory=list)
    valid_count: int = 0

    def reset(self, pages: int) -> None:
        """Clear after erase."""
        self.page_lpns = [None] * pages
        self.valid_count = 0


class DictPageMap:
    """Reference implementation: plain dict + per-block usage lists.

    Kept as the pre-vectorization :class:`~repro.ftl.mapping.PageMap`;
    the property suite in ``tests/ftl/test_mapping_properties.py`` pins the
    array implementation's observable behaviour to this one.
    """

    def __init__(self, total_blocks: int, pages_per_block: int) -> None:
        self.pages_per_block = pages_per_block
        self.total_blocks = total_blocks
        self._l2p: dict[int, PhysicalAddress] = {}
        self._usage = [BlockUsage() for _ in range(total_blocks)]
        for usage in self._usage:
            usage.reset(pages_per_block)

    # -- queries -------------------------------------------------------------

    def lookup(self, lpn: int) -> PhysicalAddress | None:
        """Physical address of an LPN, or None if unmapped."""
        return self._l2p.get(lpn)

    def is_mapped(self, lpn: int) -> bool:
        """Whether the LPN currently has a live physical copy."""
        return lpn in self._l2p

    def valid_pages(self, block_index: int) -> int:
        """Live pages in a block (GC cost input)."""
        return self._usage[block_index].valid_count

    def live_lpns(self, block_index: int) -> list[tuple[int, int]]:
        """(page_index, lpn) pairs for live pages of a block."""
        usage = self._usage[block_index]
        out = []
        for page_index, lpn in enumerate(usage.page_lpns):
            if lpn is not None and self._l2p.get(lpn) == (block_index, page_index):
                out.append((page_index, lpn))
        return out

    def live_lpns_arrays(self, block_index: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`live_lpns` as (pages, lpns) arrays."""
        pairs = self.live_lpns(block_index)
        pages = np.asarray([p for p, _ in pairs], dtype=np.int64)
        lpns = np.asarray([l for _, l in pairs], dtype=np.int64)
        return pages, lpns

    def all_mapped_lpns(self) -> list[int]:
        """Sorted list of all live LPNs."""
        return sorted(self._l2p)

    # -- updates ---------------------------------------------------------------

    def record_write(self, lpn: int, addr: PhysicalAddress) -> None:
        """Point ``lpn`` at a freshly programmed page, invalidating any old copy."""
        old = self._l2p.get(lpn)
        if old is not None:
            old_block, _old_page = old
            self._usage[old_block].valid_count -= 1
        block_index, page_index = addr
        usage = self._usage[block_index]
        usage.page_lpns[page_index] = lpn
        usage.valid_count += 1
        self._l2p[lpn] = addr

    def invalidate(self, lpn: int) -> PhysicalAddress | None:
        """Drop the mapping for ``lpn`` (trim); returns the freed address."""
        addr = self._l2p.pop(lpn, None)
        if addr is not None:
            self._usage[addr[0]].valid_count -= 1
        return addr

    def record_writes(self, lpns, block_index: int, start_page: int) -> None:
        """Batched :meth:`record_write` (reference: the literal scalar loop)."""
        for i, lpn in enumerate(np.asarray(lpns, dtype=np.int64)):
            if lpn < 0:
                raise ValueError("LPNs must be non-negative")
            self.record_write(int(lpn), (block_index, start_page + i))

    def invalidate_many(self, lpns) -> np.ndarray:
        """Batched :meth:`invalidate` (reference: the literal scalar loop)."""
        freed = [
            lpn
            for lpn in np.asarray(lpns, dtype=np.int64).tolist()
            if self.invalidate(lpn) is not None
        ]
        return np.asarray(sorted(freed), dtype=np.int64)

    def on_erase(self, block_index: int) -> None:
        """Reset reverse-map state after a block erase.

        All live data must have been migrated first; erasing a block with
        valid pages is a bug in the caller.
        """
        if self._usage[block_index].valid_count != 0:
            raise RuntimeError(
                f"erasing block {block_index} with "
                f"{self._usage[block_index].valid_count} valid pages"
            )
        self._usage[block_index].reset(self.pages_per_block)
