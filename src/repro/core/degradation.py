"""Degradation monitoring: predicting quality decay of SPARE data.

§4.3: "whenever possible, SOS preemptively moves data whose quality is
dangerously degraded from worn-out blocks".  Acting *preemptively*
requires prediction, not just observation: the monitor combines each
block's analytic RBER forecast with the media quality model to estimate
where every SPARE-resident page will be at the end of a look-ahead
window, flagging pages that will fall below the quality floor.

A scan is batched: one residency query on the FTL
(:meth:`~repro.ftl.ftl.Ftl.resident`) picks the SPARE-resident pages
in input order, and one gather each reads their blocks' PEC and their
write times and read counts from the chip's arrays.  The RBER stays
two scalar :meth:`~repro.flash.error_model.ErrorModel.rber` calls per
page (now and at the horizon), not ``rber_many``, whose vectorized
power can round differently, so a forecast is bit-identical to the
per-page computation.  :meth:`DegradationMonitor.forecast_page` is a
one-LPN scan; the per-LPN loop the scan replaced is the test oracle
in ``tests/core/core_oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.ftl.ftl import Ftl
from repro.host.hints import Placement
from repro.media.quality import FRAME_SENSITIVITY, FrameType

__all__ = ["PageForecast", "DegradationMonitor"]


@dataclass(frozen=True, slots=True)
class PageForecast:
    """Predicted state of one SPARE-resident page."""

    lpn: int
    block_index: int
    rber_now: float
    rber_at_horizon: float
    quality_at_horizon: float

    def below_floor(self, floor: float) -> bool:
        """Whether predicted quality violates the given floor."""
        return self.quality_at_horizon < floor


class DegradationMonitor:
    """Forecasts quality of SPARE pages from block wear state.

    Parameters
    ----------
    ftl:
        Device FTL (block wear and mapping source).
    horizon_years:
        Look-ahead window for forecasts.
    """

    #: BER -> quality exponent used as the page-level proxy: the P-frame
    #: constant, pessimistic for B-frames and optimistic for I-frames,
    #: which is why SOS keeps I-frames off SPARE (hybrid layout)
    sensitivity = FRAME_SENSITIVITY[FrameType.P]

    def __init__(self, ftl: Ftl, horizon_years: float = 0.5) -> None:
        self.ftl = ftl
        self.horizon_years = horizon_years

    def quality_from_rber(self, rber: float) -> float:
        """Page-level quality proxy at a given bit error rate."""
        return math.exp(-self.sensitivity * rber)

    def forecast_page(self, lpn: int) -> PageForecast | None:
        """Forecast one page; None when the LPN is not SPARE-resident."""
        forecasts = self.scan([lpn])
        return forecasts[0] if forecasts else None

    def scan(self, lpns: list[int]) -> list[PageForecast]:
        """Forecast every SPARE-resident page among ``lpns``, in input
        order (a repeated LPN is forecast each time it appears)."""
        resident, flats = self.ftl.resident(lpns, Placement.SPARE.value)
        chip = self.ftl.chip
        blocks = flats // chip.geometry.pages_per_block
        now = chip.now_years
        horizon_end = now + self.horizon_years
        forecasts = []
        for lpn, block_index, pec, written_at, reads in zip(
            resident.tolist(),
            blocks.tolist(),
            chip.arrays.pec[blocks].tolist(),
            chip.pages.written_at[flats].tolist(),
            chip.pages.reads[flats].tolist(),
        ):
            model = chip.blocks[block_index].error_model
            rber_now = model.rber(pec, max(0.0, now - written_at), reads)
            rber_future = model.rber(pec, max(0.0, horizon_end - written_at), reads)
            forecasts.append(
                PageForecast(
                    lpn=lpn,
                    block_index=block_index,
                    rber_now=rber_now,
                    rber_at_horizon=rber_future,
                    quality_at_horizon=self.quality_from_rber(rber_future),
                )
            )
        return forecasts
