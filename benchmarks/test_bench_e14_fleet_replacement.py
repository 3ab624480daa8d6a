"""E14 / §2.3.2-§2.3.3: fleet replacement churn drives flash production.

Regenerates the paper's fleet-level conclusion: because personal devices
are discarded every ~2.5-4 years with their soldered flash (§2.3.3:
reuse ~never happens), over half of annual flash bits feed devices whose
capacity will be re-manufactured **over three times** in a decade --
and quantifies the embodied carbon of that churn.

The analytic fleet model is paired with a sharded population run
through the fleet-of-fleets layer: the sample of phones is simulated to
its disposal age and reduced to a wear digest, measuring how much
endurance the discarded flash still holds -- closing the loop between
churn (this experiment) and the wear gap (E16).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.claims import ClaimCheck, Comparison
from repro.analysis.reporting import format_table
from repro.carbon.fleet import FleetConfig, simulate_fleet
from repro.flash.chip import DAYS_PER_YEAR
from repro.fleet import FleetPlan, run_fleet

from .common import report, runner_jobs

#: sample of phones simulated (one shard) to disposal age
DISPOSAL_USERS = 60
DISPOSAL_YEARS = 2.5


def compute():
    fleet = simulate_fleet(FleetConfig())
    plan = FleetPlan(
        n_devices=DISPOSAL_USERS, days=int(DISPOSAL_YEARS * DAYS_PER_YEAR),
        capacity_gb=64.0, seed=1414, shard_size=DISPOSAL_USERS,
        chunk=DISPOSAL_USERS,
    )
    disposal = run_fleet(plan, jobs=runner_jobs(),
                         name="e14-disposal-wear-batch")
    return fleet, np.asarray(disposal.wear_values())


def test_bench_e14_fleet_replacement(benchmark):
    outcome, disposal_wear = benchmark(compute)
    rows = [
        [c.name, f"{c.share * 100:.0f}%", f"{c.installed_eb_start:.0f}",
         f"{c.manufactured_eb:.0f}", f"{c.replacement_multiplier:.1f}x",
         f"{c.embodied_mt:.0f}"]
        for c in outcome.classes
    ]
    body = format_table(
        ["class", "bit share", "installed (EB)", "manufactured/decade (EB)",
         "replacement multiplier", "embodied (Mt CO2e)"],
        rows,
        title="Fleet simulation, 10 years, 10%/yr demand growth",
    )
    median_stranded = 1.0 - float(np.median(disposal_wear))
    body += (f"\n\nwear at disposal ({DISPOSAL_USERS} phones, "
             f"{DISPOSAL_YEARS}y, batched run): median endurance still "
             f"unused when discarded = {median_stranded * 100:.1f}%")
    personal_mult = outcome.personal_replacement_multiplier()
    ssd_mult = next(c.replacement_multiplier for c in outcome.classes if c.name == "ssd")
    checks = [
        ClaimCheck("s232.replaced-3x", "personal-device capacity "
                   "re-manufactured over 3x per decade", 3.0, personal_mult,
                   Comparison.AT_LEAST),
        ClaimCheck("s232.personal-majority", "over half of manufactured bits "
                   "go to personal devices", 0.5, outcome.personal_bit_share(),
                   Comparison.AT_LEAST),
        ClaimCheck("s232.phones-churn-most", "phones churn faster than SSDs "
                   "(multiplier ratio)", 1.5,
                   next(c.replacement_multiplier for c in outcome.classes
                        if c.name == "smartphone") / ssd_mult,
                   Comparison.AT_LEAST),
        ClaimCheck("s233.no-reuse", "no flash is reused across replacements "
                   "(reuse-adjusted manufacturing equals gross)", 0.0,
                   sum(1 for c in outcome.classes if c.replacement_multiplier <= 1.0)
                   / len(outcome.classes), Comparison.AT_MOST),
        ClaimCheck("s232.endurance-stranded", "the median discarded phone "
                   "still holds most of its flash endurance unused", 0.90,
                   median_stranded, Comparison.AT_LEAST),
    ]
    report("E14 (§2.3.2-§2.3.3): fleet replacement churn", body, checks)
