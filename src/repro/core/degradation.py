"""Degradation monitoring: predicting quality decay of SPARE data.

§4.3: "whenever possible, SOS preemptively moves data whose quality is
dangerously degraded from worn-out blocks".  Acting *preemptively*
requires prediction, not just observation: the monitor combines each
block's analytic RBER forecast with the media quality model to estimate
where every SPARE-resident page will be at the end of a look-ahead
window, flagging pages that will fall below the quality floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.ftl.ftl import Ftl
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
    spare_stream:
        Name of the approximate partition.
    horizon_years:
        Look-ahead window for forecasts.
    sensitivity:
        BER -> quality exponent used as the page-level proxy.  Defaults to
        the P-frame constant: pessimistic for B-frames, optimistic for
        I-frames, which is why SOS keeps I-frames off SPARE (hybrid
        layout).
    """

    def __init__(
        self,
        ftl: Ftl,
        spare_stream: str = "spare",
        horizon_years: float = 0.5,
        sensitivity: float = FRAME_SENSITIVITY[FrameType.P],
    ) -> None:
        self.ftl = ftl
        self.spare_stream = spare_stream
        self.horizon_years = horizon_years
        self.sensitivity = sensitivity

    def quality_from_rber(self, rber: float) -> float:
        """Page-level quality proxy at a given bit error rate."""
        return math.exp(-self.sensitivity * rber)

    def rber_floor_for_quality(self, quality_floor: float) -> float:
        """Invert the proxy: max RBER keeping quality above the floor."""
        if not 0.0 < quality_floor < 1.0:
            raise ValueError("quality_floor must be in (0, 1)")
        return -math.log(quality_floor) / self.sensitivity

    def forecast_page(self, lpn: int) -> PageForecast | None:
        """Forecast one page; None when the LPN is not SPARE-resident."""
        if self.ftl.stream_of(lpn) != self.spare_stream:
            return None
        addr = self.ftl.page_map.lookup(lpn)
        if addr is None:
            return None
        block_index, page_index = addr
        block = self.ftl.chip.blocks[block_index]
        now = self.ftl.chip.now_years
        rber_now = block.rber_now(page_index, now)
        page = block.page_info(page_index)
        age_at_horizon = (now + self.horizon_years) - page.written_at_years
        rber_future = block.error_model.rber(
            pec=block.pec,
            years_since_write=max(0.0, age_at_horizon),
            reads_since_write=page.reads_since_write,
        )
        return PageForecast(
            lpn=lpn,
            block_index=block_index,
            rber_now=rber_now,
            rber_at_horizon=rber_future,
            quality_at_horizon=self.quality_from_rber(rber_future),
        )

    def scan(self, lpns: list[int]) -> list[PageForecast]:
        """Forecast every SPARE-resident page among ``lpns``."""
        forecasts = []
        for lpn in lpns:
            forecast = self.forecast_page(lpn)
            if forecast is not None:
                forecasts.append(forecast)
        return forecasts

    def endangered(self, lpns: list[int], quality_floor: float) -> list[PageForecast]:
        """Pages predicted to fall below the quality floor in-horizon."""
        return [f for f in self.scan(lpns) if f.below_floor(quality_floor)]
