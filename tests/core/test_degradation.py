"""Degradation monitor: forecasts, floors, SPARE scoping."""

from __future__ import annotations

import dataclasses
import math

import pytest
from core_oracles import forecast_page as oracle_forecast_page
from core_oracles import scan as oracle_scan

from repro.core.config import SCRUB_QUALITY_FLOOR, default_config
from repro.core.degradation import DegradationMonitor
from repro.core.partitions import build_partitions
from repro.host.block_layer import BlockLayer
from repro.host.hints import Placement


@pytest.fixture
def setup():
    device = build_partitions(default_config())
    layer = BlockLayer(device.ftl)
    monitor = DegradationMonitor(device.ftl, horizon_years=0.5)
    return device, layer, monitor


class TestScoping:
    def test_sys_pages_not_forecast(self, setup):
        _, layer, monitor = setup
        layer.write_page(1, b"sys data")
        assert monitor.forecast_page(1) is None

    def test_unmapped_pages_not_forecast(self, setup):
        _, _, monitor = setup
        assert monitor.forecast_page(999) is None

    def test_spare_pages_forecast(self, setup):
        _, layer, monitor = setup
        layer.write_page(2, b"spare data", placement=Placement.SPARE)
        forecast = monitor.forecast_page(2)
        assert forecast is not None
        assert forecast.lpn == 2
        assert forecast.rber_at_horizon >= forecast.rber_now


class TestForecastShape:
    def test_wear_raises_forecast_rber(self, setup):
        device, layer, monitor = setup
        layer.write_page(3, b"d", placement=Placement.SPARE)
        before = monitor.forecast_page(3)
        addr = device.ftl.page_map.lookup(3)
        device.chip.blocks[addr[0]].pec = 600
        after = monitor.forecast_page(3)
        assert after.rber_at_horizon > before.rber_at_horizon
        assert after.quality_at_horizon < before.quality_at_horizon

    def test_quality_is_exponential_proxy(self, setup):
        _, _, monitor = setup
        rber = 1e-4
        assert monitor.quality_from_rber(rber) == pytest.approx(
            math.exp(-monitor.sensitivity * rber)
        )


def _endangered(monitor, lpns):
    """The scrubber's filter: scanned pages forecast below its floor."""
    return [f for f in monitor.scan(lpns) if f.below_floor(SCRUB_QUALITY_FLOOR)]


class TestEndangered:
    def test_fresh_pages_not_endangered(self, setup):
        _, layer, monitor = setup
        lpns = []
        for i in range(5):
            lpn = 10 + i
            layer.write_page(lpn, b"x", placement=Placement.SPARE)
            lpns.append(lpn)
        assert _endangered(monitor, lpns) == []

    def test_worn_blocks_flag_pages(self, setup):
        device, layer, monitor = setup
        lpns = []
        for i in range(5):
            lpn = 20 + i
            layer.write_page(lpn, b"x", placement=Placement.SPARE)
            lpns.append(lpn)
        for block in device.chip.blocks:
            if block.mode.operating_bits == 5:
                block.pec = 1500  # 3x rated PLC endurance
        endangered = _endangered(monitor, lpns)
        assert len(endangered) == 5

    def test_scan_covers_only_spare(self, setup):
        _, layer, monitor = setup
        layer.write_page(30, b"sys")
        layer.write_page(31, b"spare", placement=Placement.SPARE)
        forecasts = monitor.scan([30, 31])
        assert [f.lpn for f in forecasts] == [31]


def _bits(forecasts) -> list[tuple]:
    """Forecasts as tuples with every float by ``.hex()``."""
    return [
        tuple(v.hex() if isinstance(v, float) else (type(v).__name__, v)
              for v in dataclasses.astuple(f))
        for f in forecasts
    ]


class TestScanOracle:
    """The batched scan equals the per-LPN forecast loop, bit for bit."""

    SYS = list(range(100, 110))
    SPARE = list(range(200, 216))

    @pytest.fixture
    def worn(self):
        device = build_partitions(default_config())
        layer = BlockLayer(device.ftl)
        monitor = DegradationMonitor(device.ftl, horizon_years=0.5)
        for lpn in self.SYS:
            layer.write_page(lpn, b"sys")
        for i, lpn in enumerate(self.SPARE):
            # spread the write times, so pages age differently
            device.chip.advance_time(0.01 * i)
            layer.write_page(lpn, b"spare", placement=Placement.SPARE)
        for lpn in self.SPARE[::3]:
            for _ in range(1 + lpn % 4):
                device.ftl.read(lpn)
        # every block worn past its rated PEC, each by a different amount
        for i, block in enumerate(device.chip.blocks):
            block.pec = 2 * block.rated_pec + 37 * i
        device.chip.advance_time(0.4)
        return device, monitor

    def lpns(self, device) -> list[int]:
        beyond = 2**40  # past the end of the L2P array
        unmapped = 150
        assert not device.ftl.page_map.is_mapped(unmapped)
        return (
            [-1, self.SPARE[5], -7, beyond, self.SYS[0], unmapped]
            + self.SPARE[::-1]
            + [self.SYS[3], self.SPARE[2], self.SPARE[2], beyond, self.SPARE[0]]
            + self.SYS
            + [self.SPARE[9], -1]
        )

    def test_scan_matches_per_lpn_loop(self, worn):
        device, monitor = worn
        lpns = self.lpns(device)
        got = monitor.scan(lpns)
        want = oracle_scan(monitor, lpns)
        # every SPARE occurrence is forecast, repeats included, in order
        assert [f.lpn for f in got] == [lpn for lpn in lpns if lpn in self.SPARE]
        assert got == want
        assert _bits(got) == _bits(want)

    def test_scan_forecasts_worn_pages_as_endangered(self, worn):
        _, monitor = worn
        forecasts = monitor.scan(self.SPARE)
        assert all(f.below_floor(0.85) for f in forecasts)
        assert len({f.rber_now for f in forecasts}) > 1

    def test_forecast_page_matches_oracle_per_lpn(self, worn):
        device, monitor = worn
        for lpn in self.lpns(device):
            got = monitor.forecast_page(lpn)
            want = oracle_forecast_page(monitor, lpn)
            assert (got is None) == (want is None)
            if got is not None:
                assert _bits([got]) == _bits([want])

    def test_empty_scan(self, worn):
        _, monitor = worn
        assert monitor.scan([]) == []
