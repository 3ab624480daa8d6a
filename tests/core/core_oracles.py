"""Reference implementations the SOS core's batched scan is pinned to.

:meth:`repro.core.degradation.DegradationMonitor.scan` forecasts the
SPARE-resident pages of an LPN list from one residency query on the FTL
and array gathers, and the daemon picks the SPARE LPNs it scrubs with
the same query.  The per-LPN code they replaced lives here, unchanged,
as the references:

* :func:`forecast_page` -- one page's forecast through ``stream_of``,
  a page-map lookup and the block's per-page accessors;
* :func:`scan` -- :func:`forecast_page` over a list, in order;
* :func:`spare_filter` -- the daemon's per-LPN ``stream_of`` filter.

Tests import this module as ``from core_oracles import ...``.
"""

from __future__ import annotations

from repro.core.degradation import DegradationMonitor, PageForecast
from repro.ftl.ftl import Ftl
from repro.host.hints import Placement

__all__ = ["forecast_page", "scan", "spare_filter"]


def forecast_page(monitor: DegradationMonitor, lpn: int) -> PageForecast | None:
    """Forecast one page; None when the LPN is not SPARE-resident."""
    if monitor.ftl.stream_of(lpn) != Placement.SPARE.value:
        return None
    addr = monitor.ftl.page_map.lookup(lpn)
    if addr is None:
        return None
    block_index, page_index = addr
    block = monitor.ftl.chip.blocks[block_index]
    now = monitor.ftl.chip.now_years
    rber_now = block.rber_now(page_index, now)
    page = block.page_info(page_index)
    age_at_horizon = (now + monitor.horizon_years) - page.written_at_years
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
        quality_at_horizon=monitor.quality_from_rber(rber_future),
    )


def scan(monitor: DegradationMonitor, lpns: list[int]) -> list[PageForecast]:
    """Forecast every SPARE-resident page among ``lpns``."""
    forecasts = []
    for lpn in lpns:
        forecast = forecast_page(monitor, lpn)
        if forecast is not None:
            forecasts.append(forecast)
    return forecasts


def spare_filter(ftl: Ftl, spare_stream: str, lpns: list[int]) -> list[int]:
    """The LPNs of ``lpns`` that ``stream_of`` places in ``spare_stream``."""
    return [lpn for lpn in lpns if ftl.stream_of(lpn) == spare_stream]
