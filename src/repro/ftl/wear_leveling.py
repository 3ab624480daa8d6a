"""Static wear leveling -- and the option to disable it.

Classic static wear leveling bounds the PEC spread across blocks by
periodically migrating *cold* data (long-lived valid pages) out of the
least-worn blocks so those blocks rejoin the hot write path.

§4.3 of the paper (citing Jiao et al., "Wear Leveling in SSDs Considered
Harmful") **disables** preemptive wear leveling on the SPARE partition:
every preemptive migration costs an extra program/erase on data that may
be deleted before its block would ever have worn naturally, which *reduces*
total lifetime under typical personal workloads.  Experiment E7 measures
exactly this trade-off, so leveling is a per-stream policy.

Victim nomination has one implementation, :func:`pick_cold_victim`: like
GC's :func:`~repro.ftl.gc.select_victim_arrays`, it reduces over the
chip's shared per-block state columns and the page map's valid counts.
The per-block scan it replaced is a test oracle in
``tests/ftl/ftl_oracles.py``; ``tests/ftl/test_wear_leveling_vectorized.py``
pins the two to the same victim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flash.block import BlockArrays

from .mapping import PageMap

__all__ = ["WearLevelerConfig", "pick_cold_victim"]


@dataclass(frozen=True, slots=True)
class WearLevelerConfig:
    """Tuning for static wear leveling.

    Attributes
    ----------
    enabled:
        Master switch (False on SOS's SPARE partition).
    pec_spread_threshold:
        Trigger a leveling migration when ``max_pec - min_pec`` among live
        blocks exceeds this.
    """

    enabled: bool = True
    pec_spread_threshold: int = 20


def pick_cold_victim(
    config: WearLevelerConfig,
    blocks: np.ndarray,
    arrays: BlockArrays,
    page_map: PageMap,
) -> int | None:
    """Nominate the least-worn block holding valid data for forced GC.

    ``blocks`` are the candidate block indices (an int array, any
    order); the non-retired ones are live.  Returns None when leveling
    is disabled, fewer than two candidates are live, the PEC spread
    across live candidates is within ``config.pec_spread_threshold``,
    or no live candidate holds valid data.  Otherwise returns the live
    candidate with the lowest PEC among those holding valid data, ties
    to the lowest block index.  The caller migrates the victim's valid
    pages to the hot write path; the freed low-PEC block then absorbs
    future hot writes, equalizing wear.
    """
    if not config.enabled:
        return None
    live = blocks[~arrays.retired[blocks]]
    if live.size < 2:
        return None
    pec = arrays.pec[live]
    if int(pec.max()) - int(pec.min()) <= config.pec_spread_threshold:
        return None
    holds = page_map.valid_counts(live) > 0
    if not holds.any():
        return None
    holders, holder_pec = live[holds], pec[holds]
    return int(holders[holder_pec == holder_pec.min()].min())
