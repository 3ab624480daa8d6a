"""Garbage-collection victim selection policies.

Two classic policies:

* **greedy** -- pick the block with the fewest valid pages (minimum
  migration cost now);
* **cost-benefit** -- weigh reclaimable space against migration cost and
  block "age" (time since last write), preferring cold, mostly-invalid
  blocks (Kawaguchi et al.).

SOS's SPARE partition additionally cares about *wear*: migrating data off
a block costs that block's remaining life nothing, but the destination
pays a program and the victim pays an erase.  The cost-benefit policy can
therefore be wear-weighted to prefer victims with remaining endurance.

Victim selection has one implementation, :func:`select_victim_arrays`:
a masked argmin over the chip's shared per-block state columns.  The
per-candidate scalar scan it replaced is a test oracle in
``tests/ftl/ftl_oracles.py``; the randomized suite in
``tests/ftl/test_gc_vectorized.py`` pins the two to the same victim.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.flash.block import BlockArrays
from repro.obs import get_observer

from .mapping import PageMap

__all__ = ["GcPolicy", "select_victim_arrays"]


class GcPolicy(enum.Enum):
    """Victim-selection strategy."""

    GREEDY = "greedy"
    COST_BENEFIT = "cost_benefit"


def select_victim_arrays(
    candidate_indices: np.ndarray,
    page_map: PageMap,
    policy: GcPolicy,
    now_years: float,
    block_arrays: BlockArrays,
) -> int | None:
    """Choose a GC victim among ``candidate_indices``; None if none qualifies.

    ``candidate_indices`` are block indices (any order).  Retired blocks
    and blocks whose every usable page is valid (nothing to reclaim) are
    never chosen.  Eligibility, scores, and the winner come from
    ``block_arrays`` (maintained by the chip on every
    program/erase/retire) and the page map's valid-count column -- no
    per-candidate Python calls.  Lower scores win:

    * greedy scores a block by its valid page count;
    * cost-benefit scores ``-((1-u)/(1+u) * (age + 1e-6) * wear_penalty)``
      with utilization ``u = valid/usable``, ``age`` the years since the
      block's newest page was programmed, and ``wear_penalty =
      1/(1 + max(0, pec/rated_pec - 1))`` deprioritizing blocks past
      rated endurance.

    Ties break to the **lowest block index** regardless of candidate
    order (candidates are sorted and ``argmin`` returns the first
    minimum).  Observer interaction is one span and one count per
    *invocation*, and a disarmed observer skips span construction
    entirely, keeping "observability off is free" on this hot path.
    """
    idx = np.array(candidate_indices, dtype=np.int64)
    idx.sort()
    obs = get_observer()
    if not obs.enabled:
        return _argmin_victim(idx, page_map, policy, now_years, block_arrays)[0]
    with obs.span("gc.select_victim"):
        best, considered = _argmin_victim(
            idx, page_map, policy, now_years, block_arrays
        )
    obs.count("gc.candidates_considered", considered)
    return best


#: greedy score of an ineligible block: above any valid-page count
_NEVER = np.iinfo(np.int64).max


def _argmin_victim(
    idx: np.ndarray,
    page_map: PageMap,
    policy: GcPolicy,
    now_years: float,
    arrays: BlockArrays,
) -> tuple[int | None, int]:
    """Victim and eligible count among sorted block indices ``idx``."""
    if idx.size == 0:
        return None, 0
    valid = page_map.valid_counts(idx)
    usable = arrays.usable_pages[idx]
    eligible = ~arrays.retired[idx] & (valid < usable)
    considered = int(np.count_nonzero(eligible))
    if not considered:
        return None, 0
    if policy is GcPolicy.GREEDY:
        # integer valid counts order exactly as their float scores do
        return int(idx[np.where(eligible, valid, _NEVER).argmin()]), considered
    # op order pinned to the scalar oracle's scorer (IEEE elementwise)
    u = valid / np.maximum(1, usable)
    age = np.maximum(0.0, now_years - arrays.last_write_years[idx])
    wear_ratio = arrays.pec[idx] / arrays.rated_pec[idx]
    wear_penalty = 1.0 / (1.0 + np.maximum(0.0, wear_ratio - 1.0))
    scores = -(((1.0 - u) / (1.0 + u)) * (age + 1e-6) * wear_penalty)
    return int(idx[np.where(eligible, scores, np.inf).argmin()]), considered
