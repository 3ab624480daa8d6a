"""E3 / §2.3: the wear gap between device lifetime and flash endurance.

Regenerates the observations that justify trading endurance for density:

* a typical user consumes only a few percent of a TLC device's rated
  endurance during the 2-year warranty (the paper cites ~5% as the
  upper end of typical);
* flash endurance outlasts the encasing device's service life by an
  order of magnitude;
* even an adversarial write-hammering workload needs sustained effort to
  wear a device out (Zhang et al.'s Final Fantasy example).
"""

from __future__ import annotations

from repro.analysis.claims import ClaimCheck, Comparison
from repro.analysis.reporting import format_table
from repro.sim.baselines import build_tlc_baseline
from repro.sim.engine import run_lifetime
from repro.workloads.mobile import MobileWorkload, WorkloadConfig

from .common import report, run_once

WARRANTY_YEARS = 2
DEVICE_GB = 64.0


def compute():
    out = {}
    for mix in ("light", "typical", "heavy", "adversarial"):
        volumes = MobileWorkload(
            WorkloadConfig(mix=mix, days=WARRANTY_YEARS * 365, seed=101)
        ).daily_volume_arrays()
        result = run_lifetime(build_tlc_baseline(DEVICE_GB), volumes)
        out[mix] = result.final.sys_wear_fraction
    return out


def test_bench_e3_wear_gap(benchmark):
    wear = run_once(benchmark, compute)
    rows = []
    for mix, fraction in wear.items():
        lifetime_ratio = (
            WARRANTY_YEARS / (fraction * WARRANTY_YEARS / 1.0) / WARRANTY_YEARS
            if fraction > 0
            else float("inf")
        )
        # years to wear out at this rate, over the warranty period
        years_to_wearout = WARRANTY_YEARS / fraction if fraction > 0 else float("inf")
        rows.append(
            [mix, f"{fraction * 100:.1f}%", f"{years_to_wearout:.0f}",
             f"{years_to_wearout / 2.5:.0f}x"]
        )
    body = format_table(
        ["user mix", "endurance used in warranty", "years to wear-out",
         "vs 2.5y phone life"],
        rows,
        title=f"TLC {DEVICE_GB:.0f} GB device, {WARRANTY_YEARS}-year warranty",
    )
    typical = wear["typical"]
    heavy = wear["heavy"]
    years_to_wearout_typical = WARRANTY_YEARS / typical
    checks = [
        ClaimCheck("s232.wear-5pct", "typical-to-heavy use consumes ~5% "
                   "or less of endurance in warranty", 0.005, max(typical, heavy),
                   Comparison.BETWEEN, paper_upper=0.06),
        ClaimCheck("s232.gap-10x", "flash outlasts 2.5y phone life by >=10x",
                   10.0, years_to_wearout_typical / 2.5, Comparison.AT_LEAST),
        ClaimCheck("s232.ordering", "heavier use wears more (heavy/typical)",
                   1.0, heavy / typical, Comparison.AT_LEAST),
        ClaimCheck("s232.adversarial", "adversarial use wears >=10x typical",
                   10.0, wear["adversarial"] / typical, Comparison.AT_LEAST),
    ]
    report("E3 (§2.3): wear gap between device lifetime and flash endurance",
           body, checks)
