"""E8 / §4.3: capacity variance and block resuscitation.

Drives the SPARE partition far past its endurance (a write-intensive
multi-year stress) and regenerates §4.3's end-game behaviour:

* worn groups are caught by the health check and leave native-PLC
  service *gradually* -- capacity shrinks, it doesn't cliff;
* with the resuscitation ladder (PLC -> pseudo-TLC -> pseudo-SLC), part
  of each worn group's capacity survives at reduced density, so total
  capacity stays strictly higher than with retirement alone;
* the host file system keeps operating against the shrinking capacity.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.claims import ClaimCheck, Comparison
from repro.analysis.reporting import format_table
from repro.core.config import (
    SPARE_MAX_RBER,
    SPARE_MODE,
    SPARE_PROTECTION,
    SPARE_RESUSCITATION_BITS,
    SPARE_WEAR_LEVELING,
)
from repro.ecc.policy import POLICIES
from repro.flash.chip import DAYS_PER_YEAR
from repro.sim.batch import BatchPartition
from repro.sim.lifetime import PartitionSpec

from .common import report

YEARS = 4
WRITE_GB_PER_DAY = 12.0  # write-intensive stress (§4.5's scenario)
CAPACITY_GB = 32.0


def _run(resuscitation_bits: tuple[int, ...]):
    spec = PartitionSpec(
        name="spare",
        mode=SPARE_MODE,
        protection=POLICIES[SPARE_PROTECTION],
        capacity_gb=CAPACITY_GB,
        wear_leveling=SPARE_WEAR_LEVELING,
        max_rber=SPARE_MAX_RBER,
        resuscitation_bits=resuscitation_bits,
        scrub_enabled=False,
    )
    partition = BatchPartition(spec, 1)  # one device
    daily = np.array([WRITE_GB_PER_DAY])
    allowed = np.ones(1, dtype=bool)
    capacity_series = []
    for day in range(YEARS * DAYS_PER_YEAR):
        now = day / DAYS_PER_YEAR
        partition.host_write(daily * 0.3, now, churn=False)
        partition.host_write(daily * 0.7, now, churn=True)
        partition.host_delete(daily * 0.28)
        if day % 7 == 0:
            partition.maintain(now, allowed)
        if day % 30 == 0:
            capacity_series.append((now, float(partition.capacity_gb()[0])))
    return {
        "capacity_gb": float(partition.capacity_gb()[0]),
        "retired": int(partition.retired_count[0]),
        "resuscitated": int(partition.resuscitated_count[0]),
    }, capacity_series


def compute():
    with_ladder, series_ladder = _run(SPARE_RESUSCITATION_BITS)
    without, series_retire = _run(())
    return with_ladder, series_ladder, without, series_retire


def test_bench_e8_capacity_variance(benchmark):
    with_ladder, series_ladder, without, series_retire = benchmark.pedantic(
        compute, rounds=1, iterations=1
    )
    rows = []
    for (t, cap_l), (_, cap_r) in zip(series_ladder[::8], series_retire[::8]):
        rows.append([f"{t:.1f}", f"{cap_l:.1f}", f"{cap_r:.1f}"])
    body = format_table(
        ["years", "capacity w/ resuscitation (GB)", "capacity retire-only (GB)"],
        rows,
        title=f"SPARE capacity under {WRITE_GB_PER_DAY:.0f} GB/day stress",
    )
    caps_ladder = [c for _, c in series_ladder]
    # largest single-step capacity drop as a fraction of initial capacity
    worst_step = max(
        (a - b) / CAPACITY_GB for a, b in zip(caps_ladder, caps_ladder[1:])
    ) if len(caps_ladder) > 1 else 0.0
    checks = [
        ClaimCheck("s43.wear-happens", "stress actually wears groups out "
                   "(health actions occurred)", 1.0,
                   float(with_ladder["resuscitated"] + with_ladder["retired"]),
                   Comparison.AT_LEAST),
        ClaimCheck("s43.resuscitation-used", "resuscitation ladder engaged",
                   1.0, float(with_ladder["resuscitated"]), Comparison.AT_LEAST),
        ClaimCheck("s43.ladder-keeps-capacity", "resuscitation retains more "
                   "capacity than retire-only", 0.0,
                   with_ladder["capacity_gb"] - without["capacity_gb"],
                   Comparison.AT_LEAST),
        ClaimCheck("s43.graceful-shrink", "capacity shrinks stepwise, never "
                   "cliffs: worst monthly step <= 25% of device", 0.25,
                   worst_step, Comparison.AT_MOST),
        ClaimCheck("s43.retire-only-collapses", "without resuscitation the "
                   "stressed partition collapses within the first year (GB left)",
                   1.0, [c for t, c in series_retire if t <= 1.0][-1],
                   Comparison.AT_MOST),
        ClaimCheck("s43.still-usable", "device retains >= 25% capacity after "
                   "4y of stress", CAPACITY_GB * 0.25, with_ladder["capacity_gb"],
                   Comparison.AT_LEAST),
    ]
    report("E8 (§4.3): capacity variance and block resuscitation", body, checks)
