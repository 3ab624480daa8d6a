"""E16 / §2.3.1-§2.3.2: wear across a *population* of users.

The paper's wear-gap argument is distributional: "most end users and
applications rarely re-write their entire devices frequently as to wear
out the underlying flash media", field studies see ~1%/yr SSD failure,
and even the cited 5%-of-endurance figure is an upper-typical case.

This experiment simulates a population of 200 users -- intensity mix
drawn from a realistic distribution with a small adversarial tail --
each running a TLC phone for its 2.5-year service life, and reports the
wear distribution: median, p90, p99, and the fraction of the fleet that
would wear out before disposal (expected: ~none outside the tail).

Execution goes through the fleet-of-fleets layer: the population is cut
into shards, each shard is one fault-tolerant cached sweep point that
steps its devices through the batched fleet engine and reduces to a
mergeable wear digest.  Per-device identity (mix, workload seed) is a
function of the *global* device index alone, so the wear values -- and
therefore the pinned golden percentiles below -- are invariant to the
shard size and chunk size, and unchanged from the original per-user
scalar sweep (a ``slow``-marked regression pins a deliberately
misaligned sharding against the same goldens).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.claims import ClaimCheck, Comparison
from repro.analysis.reporting import format_table
from repro.fleet import DEFAULT_MIX_WEIGHTS, FleetPlan, run_fleet

from .common import report, run_once, runner_jobs

N_USERS = 200
SERVICE_YEARS = 2.5
#: devices simulated per vectorized batch pass (and per shard here)
BATCH_CHUNK = 50
#: population intensity mix: mostly light/typical, thin heavy tail
MIX_WEIGHTS = DEFAULT_MIX_WEIGHTS

#: golden percentiles from the per-user scalar sweep (seed 606); the
#: fleet layer must reproduce them exactly (TLC runs are bit-identical)
#: for ANY shard/chunk size
GOLDEN_QUANTILES = {
    "median": 0.03219373924433146,
    "p90": 0.07275184014373057,
    "p99": 0.5815825041472942,
}


def _fleet_wear(shard_size: int, chunk: int) -> np.ndarray:
    plan = FleetPlan(
        n_devices=N_USERS, days=int(SERVICE_YEARS * 365), capacity_gb=64.0,
        seed=606, mix_weights=MIX_WEIGHTS, shard_size=shard_size, chunk=chunk,
    )
    fleet = run_fleet(plan, jobs=runner_jobs(), name="e16-population-wear-batch")
    return np.asarray(fleet.wear_values())


def compute():
    return _fleet_wear(shard_size=BATCH_CHUNK, chunk=BATCH_CHUNK)


@pytest.mark.slow
def test_e16_shard_size_invariance():
    """Misaligned shard/chunk sizes reproduce the goldens bit-identically.

    17 divides neither 50 nor 200, so every shard boundary of this run
    disagrees with the golden run's -- the regression that caught
    chunk-dependent per-device identity derivation.
    """
    wear = _fleet_wear(shard_size=17, chunk=13)
    assert float(np.median(wear)) == GOLDEN_QUANTILES["median"]
    assert float(np.quantile(wear, 0.90)) == GOLDEN_QUANTILES["p90"]
    assert float(np.quantile(wear, 0.99)) == GOLDEN_QUANTILES["p99"]


def test_bench_e16_population_wear(benchmark):
    wear = run_once(benchmark, compute)
    quantiles = {
        "median": float(np.median(wear)),
        "p90": float(np.quantile(wear, 0.90)),
        "p99": float(np.quantile(wear, 0.99)),
        "max": float(wear.max()),
    }
    worn_out = float(np.mean(wear >= 1.0))
    rows = [[name, f"{value * 100:.1f}%"] for name, value in quantiles.items()]
    rows.append(["fleet worn out before disposal", f"{worn_out * 100:.1f}%"])
    body = format_table(
        ["statistic", "endurance consumed in service life"],
        rows,
        title=f"{N_USERS} users x {SERVICE_YEARS}y on 64 GB TLC phones",
    )
    checks = [
        ClaimCheck("s231.median-tiny", "the median user consumes a tiny "
                   "fraction of endurance", 0.05, quantiles["median"],
                   Comparison.AT_MOST),
        ClaimCheck("s232.p90-within-5pct-band", "even p90 sits near the "
                   "paper's ~5% figure", 0.10, quantiles["p90"],
                   Comparison.AT_MOST),
        ClaimCheck("s231.wearout-rare", "fleet fraction wearing out before "
                   "disposal is ~1%-class (field-study failure rates)", 0.02,
                   worn_out, Comparison.AT_MOST),
        ClaimCheck("s231.tail-exists", "an adversarial tail is present "
                   "(max wear far above median)", 5.0,
                   quantiles["max"] / max(quantiles["median"], 1e-9),
                   Comparison.AT_LEAST),
    ]
    # golden regression: batching must not move the distribution
    checks += [
        ClaimCheck(f"e16.golden-{name}", f"batched population reproduces the "
                   f"scalar sweep's {name} wear exactly", golden,
                   quantiles[name], rel_tol=1e-12)
        for name, golden in GOLDEN_QUANTILES.items()
    ]
    report("E16 (§2.3.1-§2.3.2): population wear distribution", body, checks)
