"""A3 ablation: classifier conservativeness threshold.

§4.2/§4.3: the classifier "err[s] on the side of caution" -- demotion to
SPARE happens only below a P(critical) threshold.  This sweep varies the
threshold and regenerates the safety/density frontier:

* low thresholds demote little: safe but the density win shrinks toward
  zero (the device degenerates to all-pseudo-QLC);
* high thresholds demote almost everything: maximum density but truly
  critical files start landing on degradable storage;
* the default (0.35) sits where most low-value media is demoted while
  critical demotions stay rare.
"""

from __future__ import annotations

from repro.analysis.claims import ClaimCheck, Comparison
from repro.analysis.reporting import format_table
from repro.classify.classifier import DEMOTE_THRESHOLD
from repro.runner import Sweep, run_sweep
from repro.runner.points import threshold_point

from .common import report, run_once, runner_jobs

NOW = 2.0
THRESHOLDS = (0.05, 0.2, 0.35, 0.5, 0.7, 0.9)


def compute():
    sweep = Sweep(
        name="a3-threshold-sweep",
        fn=threshold_point,
        grid=tuple(
            {"threshold": t, "n_files": 6000, "now_years": NOW, "corpus_seed": 606}
            for t in THRESHOLDS
        ),
        base_seed=606,
    )
    metrics = run_sweep(sweep, jobs=runner_jobs()).values()
    return list(zip(THRESHOLDS, metrics))


def test_bench_a3_threshold_sweep(benchmark):
    sweep = run_once(benchmark, compute)
    rows = [
        [f"{t:.2f}", f"{m.spare_fraction:.3f}", f"{m.critical_demotion_rate:.3f}"]
        for t, m in sweep
    ]
    body = format_table(
        ["demote threshold", "files on SPARE", "critical files demoted"],
        rows,
        title="Classifier conservativeness sweep",
    )
    spare = [m.spare_fraction for _, m in sweep]
    risk = [m.critical_demotion_rate for _, m in sweep]
    default = next(m for t, m in sweep if t == DEMOTE_THRESHOLD)
    checks = [
        ClaimCheck("a3.spare-monotone", "SPARE share rises with the threshold "
                   "(fraction of non-decreasing steps)", 1.0,
                   sum(1 for a, b in zip(spare, spare[1:]) if b >= a - 1e-9)
                   / (len(spare) - 1), rel_tol=0.001),
        ClaimCheck("a3.risk-monotone", "critical demotions rise with the "
                   "threshold (fraction of non-decreasing steps)", 1.0,
                   sum(1 for a, b in zip(risk, risk[1:]) if b >= a - 1e-9)
                   / (len(risk) - 1), rel_tol=0.001),
        ClaimCheck("a3.default-demotes-majority", "default threshold demotes "
                   "a large share of files", 0.4, default.spare_fraction,
                   Comparison.AT_LEAST),
        ClaimCheck("a3.default-conservative", "default threshold keeps critical "
                   "demotions rare", 0.2, default.critical_demotion_rate,
                   Comparison.AT_MOST),
        ClaimCheck("a3.extremes-span", "the sweep actually spans the frontier "
                   "(max - min SPARE share)", 0.3, spare[-1] - spare[0],
                   Comparison.AT_LEAST),
    ]
    report("A3 (ablation): classifier conservativeness threshold", body, checks)
