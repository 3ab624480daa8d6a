"""E11 / Figure 2 + §4 end-to-end: SOS vs baselines over a device life.

The headline experiment: four device builds (TLC, QLC, PLC-naive, SOS)
at equal user capacity run the same 3-year personal workload at two
intensities.  Regenerates the paper's who-wins picture:

* **carbon**: SOS embodies ~1/3 less carbon than the TLC status quo and
  ~10% less than QLC for the same capacity (§4.1-§4.2);
* **reliability**: SOS survives the device life -- SYS wear stays within
  pseudo-QLC endurance, SPARE media quality stays acceptable, and the
  expected uncorrectable events on critical data remain far below the
  naive all-PLC design under heavy use;
* **the trade**: PLC-naive embodies the least carbon but exposes
  critical data to the most risk -- the gap SOS's co-design closes.
"""

from __future__ import annotations

from repro.analysis.claims import ClaimCheck, Comparison
from repro.analysis.reporting import format_table
from repro.sim.baselines import (
    build_plc_naive,
    build_qlc_baseline,
    build_sos,
    build_tlc_baseline,
)
from repro.sim.engine import run_lifetime
from repro.workloads.mobile import MobileWorkload, WorkloadConfig

from .common import report, run_once

YEARS = 3
CAPACITY_GB = 64.0
BUILDERS = {
    "tlc_baseline": build_tlc_baseline,
    "qlc_baseline": build_qlc_baseline,
    "plc_naive": build_plc_naive,
    "sos": build_sos,
}


def compute():
    results = {}
    for mix in ("typical", "heavy"):
        volumes = MobileWorkload(
            WorkloadConfig(mix=mix, days=YEARS * 365, seed=303)
        ).daily_volume_arrays()
        for name, builder in BUILDERS.items():
            results[(mix, name)] = run_lifetime(builder(CAPACITY_GB), volumes)
    return results


def test_bench_e11_end_to_end(benchmark):
    results = run_once(benchmark, compute)
    rows = []
    for (mix, name), r in results.items():
        f = r.final
        rows.append(
            [mix, name, f"{r.embodied_kg:.2f}", f"{f.sys_wear_fraction * 100:.1f}%",
             f"{f.spare_wear_fraction * 100:.1f}%", f"{f.spare_quality:.3f}",
             f"{f.sys_uncorrectable:.2e}", f.retired_groups, r.survived()]
        )
    body = format_table(
        ["mix", "device", "embodied kg", "SYS wear", "SPARE wear",
         "media quality", "E[uncorrectable]", "retired", "survived"],
        rows,
        title=f"{CAPACITY_GB:.0f} GB devices after {YEARS} years",
    )
    tlc_t = results[("typical", "tlc_baseline")]
    qlc_t = results[("typical", "qlc_baseline")]
    sos_t = results[("typical", "sos")]
    plc_h = results[("heavy", "plc_naive")]
    sos_h = results[("heavy", "sos")]
    checks = [
        ClaimCheck("s42.carbon-vs-tlc", "SOS embodied carbon reduction vs TLC "
                   "(1.5x density -> 1/3 less silicon)", 1 - 1 / 1.5,
                   1 - sos_t.embodied_kg / tlc_t.embodied_kg, rel_tol=0.03),
        ClaimCheck("s42.carbon-vs-qlc", "SOS embodied carbon reduction vs QLC "
                   "(paper: ~10% capacity gain -> ~10% less silicon)", 0.10,
                   1 - sos_t.embodied_kg / qlc_t.embodied_kg, rel_tol=0.35),
        ClaimCheck("e11.sos-survives-typical", "SOS survives 3y of typical use "
                   "(1 = yes)", 1.0, float(sos_t.survived()), rel_tol=0.001),
        ClaimCheck("e11.sos-heavy-graceful", "under heavy use SOS degrades "
                   "gracefully via §4.3 resuscitation: >= 75% capacity retained",
                   0.75, sos_h.final.capacity_gb / CAPACITY_GB,
                   Comparison.AT_LEAST),
        ClaimCheck("e11.sos-heavy-quality", "media quality after heavy-use "
                   "resuscitation", 0.9, sos_h.final.spare_quality,
                   Comparison.AT_LEAST),
        ClaimCheck("e11.sos-quality", "SOS media quality after 3y typical use",
                   0.9, sos_t.final.spare_quality, Comparison.AT_LEAST),
        ClaimCheck("e11.sys-wear-margin", "SOS SYS wear stays within pseudo-QLC "
                   "endurance after 3y heavy use", 1.0,
                   sos_h.final.sys_wear_fraction, Comparison.AT_MOST),
        ClaimCheck("e11.plc-naive-riskier", "under heavy use, naive all-PLC "
                   "exposes critical data to more uncorrectable events than "
                   "SOS's protected SYS (ratio)", 10.0,
                   (plc_h.final.sys_uncorrectable + 1e-30)
                   / (sos_h.final.sys_uncorrectable + 1e-30),
                   Comparison.AT_LEAST),
        ClaimCheck("e11.tlc-wear-tiny", "TLC baseline barely wears in 3y "
                   "(the §2.3 gap SOS exploits)", 0.10,
                   tlc_t.final.sys_wear_fraction, Comparison.AT_MOST),
    ]
    report("E11 (Figure 2 / §4): SOS vs baselines over a 3-year device life",
           body, checks)
