"""A2 ablation: SYS/SPARE split ratio sweep.

§4.2 "conservatively assum[es] each partition takes up about half of the
device storage".  This sweep varies the SPARE fraction from 10% to 90%
and regenerates the trade-off surface behind that choice:

* density gain (and carbon reduction) grows linearly with the SPARE
  fraction: +50% over TLC at 50/50, approaching +66% as SPARE -> all;
* SYS wear pressure grows as SYS shrinks (same critical write volume
  into fewer blocks) -- the constraint that keeps the split near half.
"""

from __future__ import annotations

from repro.analysis.claims import ClaimCheck, Comparison
from repro.analysis.reporting import format_table
from repro.flash.chip import DAYS_PER_YEAR
from repro.runner import Sweep, run_sweep
from repro.runner.points import split_point

from .common import report, run_once, runner_jobs

YEARS = 3
FRACTIONS = (0.1, 0.25, 0.5, 0.75, 0.9)


def compute():
    sweep = Sweep(
        name="a2-split-sweep",
        fn=split_point,
        grid=tuple(
            {"spare_fraction": f, "capacity_gb": 64.0, "mix": "typical",
             "days": YEARS * DAYS_PER_YEAR, "workload_seed": 505}
            for f in FRACTIONS
        ),
        base_seed=505,
    )
    points = run_sweep(sweep, jobs=runner_jobs()).values()
    return [
        (p["fraction"], p["gain"], p["carbon_reduction"], p["result"]) for p in points
    ]


def test_bench_a2_split_sweep(benchmark):
    sweep = run_once(benchmark, compute)
    rows = []
    for fraction, gain, carbon, result in sweep:
        f = result.final
        rows.append(
            [f"{fraction:.2f}", f"{gain * 100:.1f}%", f"{carbon * 100:.1f}%",
             f"{f.sys_wear_fraction * 100:.1f}%", f"{f.spare_quality:.3f}"]
        )
    body = format_table(
        ["SPARE fraction", "density gain vs TLC", "carbon reduction",
         "SYS wear (3y)", "media quality"],
        rows,
        title="Partition split sweep",
    )
    gains = [gain for _, gain, _, _ in sweep]
    sys_wears = [r.final.sys_wear_fraction for *_, r in sweep]
    half = next(item for item in sweep if item[0] == 0.5)
    checks = [
        ClaimCheck("a2.gain-monotone", "density gain rises with SPARE share "
                   "(fraction of increasing steps)", 1.0,
                   sum(1 for a, b in zip(gains, gains[1:]) if b > a)
                   / (len(gains) - 1), rel_tol=0.001),
        ClaimCheck("a2.half-is-50pct", "50/50 split delivers the paper's +50%",
                   0.50, half[1], rel_tol=0.001),
        ClaimCheck("a2.wear-pressure", "shrinking SYS raises SYS wear "
                   "(90% SPARE vs 10% SPARE wear ratio)", 2.0,
                   sys_wears[-1] / sys_wears[0], Comparison.AT_LEAST),
        ClaimCheck("a2.half-survives", "the paper's 50/50 point survives 3y",
                   1.0, float(half[3].survived()), rel_tol=0.001),
        ClaimCheck("a2.extreme-spare-risky", "at 90% SPARE, SYS wear exceeds "
                   "the 50/50 point's", half[3].final.sys_wear_fraction,
                   sys_wears[-1], Comparison.AT_LEAST),
    ]
    report("A2 (ablation): SYS/SPARE split ratio sweep", body, checks)
