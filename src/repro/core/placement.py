"""Placement engine: applies classifier hints to file extents.

The glue between §4.4's classifier and §4.2's partitions.  New data lands
on SYS (pseudo-QLC) by default; once the classifier deems a file
non-critical with sufficient confidence, every page of the file is
relocated to SPARE.  Promotions (SPARE -> SYS) happen when a re-evaluation
raises a file's criticality -- user preferences "tend to change over
time" (§4.4).  The engine keeps no placement record of its own: a file is
on SPARE when the FTL's page map holds every one of its pages there.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.host.block_layer import BlockLayer
from repro.host.files import FileRecord
from repro.host.hints import Placement, PlacementHint

__all__ = ["MIN_DEMOTE_CONFIDENCE", "PlacementEngine", "PlacementStats"]

#: hints demoting to SPARE below this confidence are ignored -- a second
#: conservative gate on top of the classifier threshold
MIN_DEMOTE_CONFIDENCE = 0.6


@dataclass(slots=True)
class PlacementStats:
    """Cumulative placement activity."""

    demotions: int = 0
    promotions: int = 0
    pages_moved: int = 0
    hints_ignored_low_confidence: int = 0
    #: demotions deferred because SPARE lacked room (retried next review)
    hints_deferred_no_room: int = 0


class PlacementEngine:
    """Applies placement hints to files through the block layer.

    Parameters
    ----------
    block_layer:
        Host block layer over the SYS/SPARE FTL.
    """

    def __init__(self, block_layer: BlockLayer) -> None:
        self.block_layer = block_layer
        self.stats = PlacementStats()

    def placement_of(self, file: FileRecord) -> Placement:
        """SPARE when the page map holds every extent of a file on SPARE
        (one residency query), else SYS."""
        if file.extents:
            resident, _ = self.block_layer.ftl.resident(file.extents, Placement.SPARE.value)
            if resident.size == len(file.extents):
                return Placement.SPARE
        return Placement.SYS

    def apply_hint(self, file: FileRecord, hint: PlacementHint) -> bool:
        """Apply one hint; returns True when pages actually moved."""
        if hint.file_id != file.file_id:
            raise ValueError("hint/file mismatch")
        if hint.placement is self.placement_of(file):
            return False
        if hint.placement is Placement.SPARE and hint.confidence < MIN_DEMOTE_CONFIDENCE:
            self.stats.hints_ignored_low_confidence += 1
            return False
        if hint.placement is Placement.SPARE and not self._spare_has_room(
            len(file.extents)
        ):
            self.stats.hints_deferred_no_room += 1
            return False
        for lpn in file.extents:
            self.block_layer.relocate(lpn, hint.placement)
            self.stats.pages_moved += 1
        if hint.placement is Placement.SPARE:
            self.stats.demotions += 1
        else:
            self.stats.promotions += 1
        return True

    def _spare_has_room(self, pages_needed: int) -> bool:
        """Whether SPARE can absorb a demotion without starving its GC.

        Keeps one erase block's worth of pages beyond the GC reserve so
        the stream never deadlocks mid-relocation.
        """
        ftl = self.block_layer.ftl
        spare = Placement.SPARE.value
        capacity = ftl.stream_capacity_pages(spare)
        live = ftl.stream_live_pages(spare)
        reserve_blocks = ftl.stream(spare).config.gc_free_block_threshold + 2
        reserve = reserve_blocks * ftl.chip.geometry.pages_per_block
        return capacity - live - reserve >= pages_needed

    def spare_files(self, files) -> list[FileRecord]:
        """Subset of ``files`` the page map holds wholly on SPARE."""
        return [f for f in files if self.placement_of(f) is Placement.SPARE]
