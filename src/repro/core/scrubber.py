"""Preemptive scrubber: rescues endangered SPARE data (§4.3).

Periodically forecasts SPARE page quality (see
:class:`~repro.core.degradation.DegradationMonitor`) and acts on pages
predicted to fall below the floor:

1. if a clean cloud copy exists, **repair in place** -- rewrite from the
   backup onto fresh SPARE blocks ("amending overly degraded local data
   copies through a cloud-backed copy");
2. otherwise **relocate** the page to the write head, moving it off the
   worn block (the accrued errors travel with it -- approximate storage
   cannot un-degrade without a reference copy);
3. after rescue, run the stream health check so the vacated worn blocks
   are retired or resuscitated at reduced density.

Note wear leveling on SPARE stays disabled: the scrubber moves only
*endangered* data, not cold data for wear balance -- the distinction
§4.3 draws when it disables preemptive wear-variance migration but keeps
preemptive quality rescue.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.host.block_layer import BlockLayer
from repro.host.hints import Placement
from repro.obs import get_observer

from .config import SCRUB_QUALITY_FLOOR
from .degradation import DegradationMonitor, PageForecast
from .repair import CloudBackup

__all__ = ["Scrubber", "ScrubReport"]


@dataclass(slots=True)
class ScrubReport:
    """Outcome of one scrub pass."""

    pages_scanned: int = 0
    pages_endangered: int = 0
    pages_repaired_from_cloud: int = 0
    pages_relocated: int = 0
    blocks_retired: int = 0
    blocks_resuscitated: int = 0
    #: fetch retries issued against a flaky/unreachable cloud
    repair_retries: int = 0
    #: simulated seconds spent in exponential backoff between retries
    repair_backoff_s: float = 0.0
    #: rescues where a clean copy existed but could not be fetched, so the
    #: page degraded to relocation (graceful degradation, counted not fatal)
    repairs_failed: int = 0


class Scrubber:
    """Quality-driven preemptive migration for the SPARE partition.

    Parameters
    ----------
    block_layer:
        Host block layer (relocation and rewrite path).
    monitor:
        Degradation forecaster.
    backup:
        Cloud backup store (may hold clean copies of some LPNs).
    quality_floor:
        Forecast quality below which a page is rescued.
    max_repair_retries:
        Bounded retry budget for cloud fetches that fail while a clean
        copy is known to exist (outage or transient failure).
    repair_backoff_s:
        Base of the exponential backoff between retries.  The scrubber
        runs inside a simulation, so backoff is *accounted*, not slept:
        it accrues into :attr:`ScrubReport.repair_backoff_s`.
    """

    def __init__(
        self,
        block_layer: BlockLayer,
        monitor: DegradationMonitor,
        backup: CloudBackup,
        quality_floor: float = SCRUB_QUALITY_FLOOR,
        max_repair_retries: int = 3,
        repair_backoff_s: float = 0.05,
    ) -> None:
        if max_repair_retries < 0:
            raise ValueError("max_repair_retries must be >= 0")
        self.block_layer = block_layer
        self.monitor = monitor
        self.backup = backup
        self.quality_floor = quality_floor
        self.max_repair_retries = max_repair_retries
        self.repair_backoff_s = repair_backoff_s

    def scrub(self, lpns: list[int]) -> ScrubReport:
        """Scan the given LPNs and rescue endangered pages."""
        report = ScrubReport()
        ftl = self.monitor.ftl
        obs = get_observer()
        with obs.span("scrub.pass"):
            retired_before = ftl.stats.blocks_retired
            resuscitated_before = ftl.stats.blocks_resuscitated
            # health first: rescues must land on healthy blocks, so a worn
            # open block is abandoned before any rewrite happens
            ftl.check_stream_health(Placement.SPARE.value)
            forecasts = self.monitor.scan(lpns)
            report.pages_scanned = len(forecasts)
            endangered = [f for f in forecasts if f.below_floor(self.quality_floor)]
            report.pages_endangered = len(endangered)
            for forecast in endangered:
                self._rescue(forecast, report)
            ftl.check_stream_health(Placement.SPARE.value)
            report.blocks_retired = ftl.stats.blocks_retired - retired_before
            report.blocks_resuscitated = ftl.stats.blocks_resuscitated - resuscitated_before
        obs.count("scrub.pages_scanned", report.pages_scanned)
        obs.count("scrub.pages_endangered", report.pages_endangered)
        return report

    def _rescue(self, forecast: PageForecast, report: ScrubReport) -> None:
        ftl = self.monitor.ftl
        obs = get_observer()
        now = ftl.chip.now_years
        lpn = forecast.lpn
        clean = self._fetch_with_retry(lpn, report)
        if clean is not None:
            # repair: rewrite the clean copy at the SPARE write head
            ftl.write(lpn, clean, Placement.SPARE.value)
            report.pages_repaired_from_cloud += 1
            obs.event("cloud_repair", t=now, lpn=lpn, outcome="repaired")
            return
        if self.backup.covered(lpn):
            # a clean copy exists but the cloud never answered: graceful
            # degradation -- count the failed repair, keep rescuing
            report.repairs_failed += 1
            obs.event("cloud_repair", t=now, lpn=lpn, outcome="failed")
        # relocate best-effort: accrued errors travel with the data
        ftl.relocate(lpn, Placement.SPARE.value)
        report.pages_relocated += 1
        obs.event("page_relocated", t=now, lpn=lpn)

    def _fetch_with_retry(self, lpn: int, report: ScrubReport) -> bytes | None:
        """Fetch a clean copy, retrying with exponential backoff.

        Retries only when the store is known to hold the page and the
        failure is recoverable (an outage or transient failure) -- a miss
        can never succeed, and a statically unavailable cloud never
        answers, so neither burns the retry budget.
        """
        clean = self.backup.fetch_page(lpn)
        if (
            clean is not None
            or not self.backup.covered(lpn)
            or not self.backup.available
        ):
            return clean
        obs = get_observer()
        backoff = self.repair_backoff_s
        for _ in range(self.max_repair_retries):
            report.repair_retries += 1
            report.repair_backoff_s += backoff
            backoff *= 2.0
            obs.count("scrub.repair_retries")
            clean = self.backup.fetch_page(lpn)
            if clean is not None:
                return clean
        return None
