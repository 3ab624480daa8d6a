"""Classifier daemon: the periodic background review of §4.4.

"The mechanism operates in the background as a privileged system daemon,
which performs a periodic review (e.g., daily) of new file data."

Each run the daemon (1) classifies files it hasn't reviewed -- or whose
attributes changed since the last review -- and applies placement hints
through the :class:`~repro.core.placement.PlacementEngine`; (2) invokes
the scrubber over all SPARE-resident pages; (3) lets the trim policy
check capacity pressure.  Re-evaluation of previously reviewed files
happens on a longer period ("we plan to periodically re-evaluate user
preferences as these tend to change over time").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.classify.classifier import FileClassifier
from repro.host.filesystem import FileSystem
from repro.host.hints import Placement

from .placement import PlacementEngine
from .scrubber import Scrubber, ScrubReport
from .tolerance import ToleranceRegistry
from .trim_policy import TrimEvent, TrimPolicy

__all__ = ["ClassifierDaemon", "DaemonRunReport"]


@dataclass(frozen=True, slots=True)
class DaemonRunReport:
    """Outcome of one daemon period."""

    at_years: float
    files_reviewed: int
    files_moved: int
    scrub: ScrubReport
    trim: TrimEvent | None


class ClassifierDaemon:
    """Periodic classification + scrub + trim driver.

    Parameters
    ----------
    filesystem, classifier, placement, scrubber, trim:
        The SOS components the daemon coordinates.
    """

    #: files already reviewed are re-classified after this long
    #: (preference drift)
    reevaluate_period_years = 0.25

    def __init__(
        self,
        filesystem: FileSystem,
        classifier: FileClassifier,
        placement: PlacementEngine,
        scrubber: Scrubber,
        trim: TrimPolicy,
        tolerance: "ToleranceRegistry | None" = None,
    ) -> None:
        self.filesystem = filesystem
        self.classifier = classifier
        self.placement = placement
        self.scrubber = scrubber
        self.trim = trim
        #: optional per-app degradation-tolerance overrides (§4.2)
        self.tolerance = tolerance
        self._last_review: dict[int, float] = {}
        self.runs: list[DaemonRunReport] = []

    def run_once(self) -> DaemonRunReport:
        """Execute one daemon period at the file system's current time."""
        now = self.filesystem.now_years
        reviewed = 0
        moved = 0
        for record in list(self.filesystem.live_files()):
            last = self._last_review.get(record.file_id)
            due = last is None or (now - last) >= self.reevaluate_period_years
            if not due:
                continue
            hint = self.classifier.classify(record, now)
            if self.tolerance is not None:
                hint = self.tolerance.apply(record, hint)
            if self.placement.apply_hint(record, hint):
                moved += 1
            self._last_review[record.file_id] = now
            reviewed += 1
        extents = [lpn for record in self.filesystem.live_files() for lpn in record.extents]
        spare_lpns, _ = self.scrubber.monitor.ftl.resident(extents, Placement.SPARE.value)
        scrub_report = self.scrubber.scrub(spare_lpns.tolist())
        trim_event = self.trim.enforce()
        report = DaemonRunReport(
            at_years=now,
            files_reviewed=reviewed,
            files_moved=moved,
            scrub=scrub_report,
            trim=trim_event,
        )
        self.runs.append(report)
        return report
