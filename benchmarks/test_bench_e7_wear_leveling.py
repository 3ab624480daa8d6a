"""E7 / §4.3: wear leveling disabled on SPARE.

Regenerates the Jiao-et-al argument the paper adopts: on a partition of
write-once media plus a little churn, static wear leveling spends extra
program/erase cycles moving cold data for wear balance -- cycles that a
read-dominant partition never earns back.  Disabling it lowers *total*
wear; the cost is wear concentration in the churn-heavy blocks, which
SOS tolerates because worn SPARE blocks retire/resuscitate individually
(capacity variance) rather than failing the device.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.claims import ClaimCheck, Comparison
from repro.analysis.reporting import format_table
from repro.core.config import SPARE_MAX_RBER, SPARE_MODE, SPARE_PROTECTION
from repro.ecc.policy import POLICIES
from repro.sim.batch import BatchPartition
from repro.sim.lifetime import PartitionSpec

from .common import report

YEARS = 3
#: media-dominated SPARE traffic: mostly write-once, a little churn
NEW_GB_PER_DAY = 0.9
CHURN_GB_PER_DAY = 0.15


def _run(wear_leveling: bool):
    spec = PartitionSpec(
        name="spare",
        mode=SPARE_MODE,
        protection=POLICIES[SPARE_PROTECTION],
        capacity_gb=32.0,
        wear_leveling=wear_leveling,
        max_rber=SPARE_MAX_RBER,
        resuscitation_bits=(),
        scrub_enabled=False,
    )
    partition = BatchPartition(spec, 1)  # one device
    new, churn = np.array([NEW_GB_PER_DAY]), np.array([CHURN_GB_PER_DAY])
    deleted = new * 0.9  # steady-state churn
    allowed = np.ones(1, dtype=bool)
    for day in range(YEARS * 365):
        now = day / 365.0
        partition.host_write(new, now, churn=False)
        partition.host_write(churn, now, churn=True)
        partition.host_delete(deleted)
        if day % 30 == 0:
            partition.maintain(now, allowed)
    state = partition.export_state()
    pec = state["pec"][0]
    return {
        "mean_pec": float(partition.mean_pec()[0]),
        "max_pec": float(pec[~state["retired"][0]].max()),
        "total_wear_gb_cycles": float((pec * state["capacity_gb"][0]).sum()),
        "retired": int(partition.retired_count[0]),
        "capacity_gb": float(partition.capacity_gb()[0]),
    }


def compute():
    return {"wl_on": _run(True), "wl_off": _run(False)}


def test_bench_e7_wear_leveling(benchmark):
    result = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = [
        [
            name,
            f"{r['mean_pec']:.1f}",
            f"{r['max_pec']:.1f}",
            f"{r['total_wear_gb_cycles']:.0f}",
            r["retired"],
            f"{r['capacity_gb']:.1f}",
        ]
        for name, r in result.items()
    ]
    body = format_table(
        ["policy", "mean PEC", "max PEC", "total wear (GB-cycles)",
         "groups retired", "capacity left (GB)"],
        rows,
        title=f"SPARE partition after {YEARS} years of media-dominated traffic",
    )
    on, off = result["wl_on"], result["wl_off"]
    checks = [
        ClaimCheck("s43.wl-total-wear", "disabling WL reduces total wear "
                   "(off/on ratio below 1)", 1.0,
                   off["total_wear_gb_cycles"] / on["total_wear_gb_cycles"],
                   Comparison.AT_MOST),
        ClaimCheck("s43.wl-mean-pec", "mean PEC lower without WL", 1.0,
                   off["mean_pec"] / on["mean_pec"], Comparison.AT_MOST),
        ClaimCheck("s43.wl-concentration", "wear skews toward churn blocks "
                   "without WL (max/mean PEC at least 1.25x)", 1.25,
                   off["max_pec"] / off["mean_pec"], Comparison.AT_LEAST),
        ClaimCheck("s43.wl-even", "WL keeps wear even (max/mean below 1.1)",
                   1.1, on["max_pec"] / on["mean_pec"], Comparison.AT_MOST),
        ClaimCheck("s43.capacity-survives", "WL-off capacity loss stays "
                   "bounded (>= 75% capacity after 3y)", 24.0,
                   off["capacity_gb"], Comparison.AT_LEAST),
    ]
    report("E7 (§4.3): wear leveling considered harmful on SPARE", body, checks)
