"""Data-loss fallback: trim capacity via auto-delete (§4.5).

"Under exceptionally write-intensive workloads some PLC flash blocks may
prematurely wear out, forcing SOS to trim the amount of data stored on
the device to retain functionality.  In this case SOS temporarily
transforms its data degradation scheme to automatically delete data ...
once enough space (e.g. 3% of capacity) has been freed, SOS will return
to perform regular data degradation only."

The policy watches the file system's view of (capacity-variant) device
capacity.  When live data no longer fits with the target headroom, it
deletes files in the order the auto-delete predictor ranks them (most
expendable first), stopping as soon as the headroom target is met.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.classify.auto_delete import AutoDeletePredictor
from repro.host.filesystem import FileSystem
from repro.obs import get_observer

from .config import TRIM_FREE_TARGET

__all__ = ["TrimMode", "TrimEvent", "TrimPolicy"]


class TrimMode(enum.Enum):
    """Current operating regime of the degradation scheme."""

    DEGRADATION_ONLY = "degradation_only"
    AUTO_DELETE = "auto_delete"


@dataclass(frozen=True, slots=True)
class TrimEvent:
    """Record of one auto-delete episode."""

    at_years: float
    files_deleted: int
    pages_freed: int
    capacity_pages: int


class TrimPolicy:
    """Auto-delete fallback triggered by capacity pressure.

    Parameters
    ----------
    filesystem:
        Host file system (capacity and deletion path).
    predictor:
        Deletion-likelihood ranking model.
    free_target:
        Fraction of capacity to keep free (paper's "e.g. 3%").
    """

    def __init__(
        self,
        filesystem: FileSystem,
        predictor: AutoDeletePredictor,
        free_target: float = TRIM_FREE_TARGET,
    ) -> None:
        if not 0.0 < free_target < 1.0:
            raise ValueError("free_target must be in (0, 1)")
        self.filesystem = filesystem
        self.predictor = predictor
        self.free_target = free_target
        self.mode = TrimMode.DEGRADATION_ONLY
        self.events: list[TrimEvent] = []

    def headroom_pages_needed(self) -> int:
        """Pages that must be free to satisfy the target."""
        return int(self.filesystem.capacity_pages() * self.free_target)

    def under_pressure(self) -> bool:
        """Whether free space is below the target headroom."""
        return self.filesystem.free_pages() < self.headroom_pages_needed()

    def enforce(self) -> TrimEvent | None:
        """Check pressure; if triggered, auto-delete until the target holds.

        Returns the trim event, or None when no action was needed.  After
        a successful trim the mode returns to ``DEGRADATION_ONLY`` (the
        paper's "return to perform regular data degradation only").
        """
        if not self.under_pressure():
            self.mode = TrimMode.DEGRADATION_ONLY
            return None
        self.mode = TrimMode.AUTO_DELETE
        now = self.filesystem.now_years
        target = self.headroom_pages_needed()
        ranked = self.predictor.rank_for_deletion(
            list(self.filesystem.live_files()), now
        )
        files_deleted = 0
        pages_freed = 0
        for record, _p_delete in ranked:
            if self.filesystem.free_pages() >= target:
                break
            pages_freed += len(record.extents)
            self.filesystem.delete(record.path)
            files_deleted += 1
        event = TrimEvent(
            at_years=now,
            files_deleted=files_deleted,
            pages_freed=pages_freed,
            capacity_pages=self.filesystem.capacity_pages(),
        )
        self.events.append(event)
        get_observer().event(
            "auto_delete_fallback", t=now, files_deleted=files_deleted,
            pages_freed=pages_freed,
        )
        if self.filesystem.free_pages() >= target:
            self.mode = TrimMode.DEGRADATION_ONLY
        return event
