"""A1 ablation: ECC strength on the SPARE partition.

§4.2 prescribes "weak protection (e.g., no ECC)" for SPARE.  This
ablation sweeps NONE / WEAK / STRONG on the epoch model's SPARE
partition over 3 years and quantifies the trade:

* stronger ECC buys quality headroom but pays parity overhead, which
  directly erodes the density (and therefore carbon) win;
* with the scrubber active, NONE already holds the quality bar at
  typical wear -- the measured justification for the paper's choice.
"""

from __future__ import annotations

from repro.analysis.claims import ClaimCheck, Comparison
from repro.analysis.reporting import format_table
from repro.ecc.policy import POLICIES, ProtectionLevel
from repro.sim.baselines import build_sos
from repro.sim.engine import run_lifetime
from repro.workloads.mobile import MobileWorkload, WorkloadConfig

from .common import report, run_once

YEARS = 3


def compute():
    volumes = MobileWorkload(
        WorkloadConfig(mix="typical", days=YEARS * 365, seed=404)
    ).daily_volume_arrays()
    out = {}
    for level in ProtectionLevel:
        build = build_sos(64.0, spare_protection=level)
        result = run_lifetime(build, volumes)
        overhead = POLICIES[level].capacity_overhead
        out[level] = (result, overhead)
    return out


def test_bench_a1_ecc_ablation(benchmark):
    results = run_once(benchmark, compute)
    rows = []
    for level, (result, overhead) in results.items():
        f = result.final
        rows.append(
            [level.value, f"{overhead * 100:.1f}%", f"{f.spare_quality:.4f}",
             f"{f.spare_wear_fraction * 100:.1f}%"]
        )
    body = format_table(
        ["SPARE protection", "capacity overhead", "media quality (3y)",
         "SPARE wear"],
        rows,
        title="ECC strength on SPARE (scrubber active)",
    )
    none_q = results[ProtectionLevel.NONE][0].final.spare_quality
    weak_q = results[ProtectionLevel.WEAK][0].final.spare_quality
    strong_q = results[ProtectionLevel.STRONG][0].final.spare_quality
    strong_overhead = results[ProtectionLevel.STRONG][1]
    checks = [
        ClaimCheck("a1.none-suffices", "no-ECC SPARE holds the quality bar "
                   "at typical wear (the §4.2 bet)", 0.9, none_q,
                   Comparison.AT_LEAST),
        ClaimCheck("a1.ordering", "quality ordering none <= weak <= strong",
                   1.0, float(none_q <= weak_q + 1e-9 and weak_q <= strong_q + 1e-9),
                   rel_tol=0.001),
        ClaimCheck("a1.strong-overhead", "strong ECC costs >= 7% capacity "
                   "overhead on SPARE", 0.07, strong_overhead, Comparison.AT_LEAST),
        ClaimCheck("a1.marginal-gain", "strong ECC's quality gain over none "
                   "at typical wear is marginal (<= 0.1)", 0.1,
                   strong_q - none_q, Comparison.AT_MOST),
    ]
    report("A1 (ablation): ECC strength on SPARE", body, checks)
