"""A9 ablation: deterministic fault injection at increasing scale.

"The Dirty Secret of SSDs" motivation behind §4.3: real devices lose
blocks early (infant mortality), reads flake, programs get torn by power
loss, and the cloud repair source goes away for days at a time.  SOS's
pitch is graceful degradation -- faults cost capacity and quality
*proportionally*, never a bricked device or a crashed simulation.

Sweep-shaped: one :func:`~repro.runner.points.fault_ablation_point` per
fault scale (0x = fault-free control, then 1x/2x/4x the base rates),
fanned out through the fault-tolerant runner.  Claims:

* the zero-scale arm is bit-identical to a plain fault-free run (the
  fault machinery is observationally free when disabled);
* fault counters scale monotonically with the injected rate;
* even the harshest arm completes and keeps a usable device (graceful
  degradation, not collapse).
"""

from __future__ import annotations

from repro.analysis.claims import ClaimCheck, Comparison
from repro.analysis.reporting import format_table
from repro.flash.chip import DAYS_PER_YEAR
from repro.runner import Sweep, run_sweep
from repro.runner.points import fault_ablation_point

from .common import report, run_once, runner_jobs

CAPACITY_GB = 32.0
DAYS = 2 * DAYS_PER_YEAR
SEED = 41
SCALES = (0.0, 1.0, 2.0, 4.0)


def compute():
    grid = tuple(
        {
            "fault_scale": scale,
            "capacity_gb": CAPACITY_GB,
            "mix": "typical",
            "days": DAYS,
            "workload_seed": SEED,
        }
        for scale in SCALES
    )
    sweep = Sweep(
        name="a9-fault-ablation",
        fn=fault_ablation_point,
        grid=grid,
        base_seed=SEED,
    )
    outcome = run_sweep(sweep, jobs=runner_jobs(), retries=1, keep_going=False)
    return [p.value for p in outcome.points]


def test_bench_a9_fault_ablation(benchmark):
    arms = run_once(benchmark, compute)
    by_scale = {arm["fault_scale"]: arm for arm in arms}
    rows = []
    for scale in SCALES:
        arm = by_scale[scale]
        faults = arm["faults"]
        rows.append([
            f"{scale:g}x",
            faults.get("infant_deaths", 0),
            faults.get("transient_reads", 0),
            faults.get("torn_programs", 0),
            faults.get("cloud_outage_days", 0),
            f"{arm['capacity_fraction'] * 100:.1f}%",
            f"{arm['spare_quality']:.3f}",
            "yes" if arm["survived"] else "no",
        ])
    body = format_table(
        ["fault scale", "infant deaths", "transient reads", "torn programs",
         "outage days", "capacity left", "media quality", "usable"],
        rows,
        title=f"Fault-injection ablation ({CAPACITY_GB:.0f} GB SOS, "
              f"{DAYS // DAYS_PER_YEAR}y typical mix)",
    )

    control = by_scale[0.0]
    harshest = by_scale[max(SCALES)]
    event_totals = [
        sum(
            by_scale[s]["faults"].get(k, 0)
            for k in ("infant_deaths", "transient_reads", "torn_programs",
                      "cloud_outage_days")
        )
        for s in SCALES
    ]
    checks = [
        ClaimCheck("a9.zero-is-free", "the 0x arm records zero fault events "
                   "(fault machinery is observationally free when disabled)",
                   0.0, float(event_totals[0]), Comparison.AT_MOST),
        ClaimCheck("a9.counters-scale", "total fault events increase "
                   "monotonically with the injected rate", 1.0,
                   float(all(a < b for a, b in zip(event_totals, event_totals[1:]))),
                   Comparison.AT_LEAST),
        ClaimCheck("a9.graceful-degradation", "the harshest arm still ends "
                   "with a usable device (capacity above half)", 0.5,
                   harshest["capacity_fraction"], Comparison.AT_LEAST),
        ClaimCheck("a9.faults-cost-capacity", "injected faults cost capacity "
                   "relative to the control (degradation is real, not a "
                   "no-op)", control["capacity_fraction"],
                   harshest["capacity_fraction"], Comparison.AT_MOST),
        ClaimCheck("a9.all-arms-complete", "every arm completes under "
                   "injected faults (no crash, no lost points)",
                   float(len(SCALES)), float(len(arms)), Comparison.AT_LEAST),
    ]
    report("A9 (ablation): deterministic fault injection", body, checks)
