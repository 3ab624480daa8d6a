"""Seed robustness: headline outcomes hold across workload randomness."""

from __future__ import annotations

import pytest

from repro.sim.baselines import build_sos, build_tlc_baseline
from repro.sim.engine import run_lifetime
from repro.workloads.mobile import MobileWorkload, WorkloadConfig

SEEDS = (1, 2, 3, 4, 5)
YEARS = 2


@pytest.fixture(scope="module")
def results():
    out = []
    for seed in SEEDS:
        volumes = MobileWorkload(
            WorkloadConfig(mix="typical", days=YEARS * 365, seed=seed)
        ).daily_volume_arrays()
        out.append(
            (run_lifetime(build_sos(64.0), volumes),
             run_lifetime(build_tlc_baseline(64.0), volumes))
        )
    return out


class TestSeedRobustness:
    def test_sos_survives_every_seed(self, results):
        for sos, _tlc in results:
            assert sos.survived()

    def test_quality_band_is_tight(self, results):
        qualities = [sos.final.spare_quality for sos, _ in results]
        assert min(qualities) > 0.9
        assert max(qualities) - min(qualities) < 0.05

    def test_carbon_is_seed_independent(self, results):
        """Embodied carbon is a design property, not a workload outcome."""
        values = {round(sos.embodied_kg, 9) for sos, _ in results}
        assert len(values) == 1

    def test_wear_ordering_holds_every_seed(self, results):
        """SOS SYS always wears faster than TLC (denser cells), never
        close to exhaustion under typical use."""
        for sos, tlc in results:
            assert sos.final.sys_wear_fraction > tlc.final.sys_wear_fraction
            assert sos.final.sys_wear_fraction < 0.5

    def test_wear_variance_is_moderate(self, results):
        wears = [sos.final.sys_wear_fraction for sos, _ in results]
        assert max(wears) / min(wears) < 1.5
