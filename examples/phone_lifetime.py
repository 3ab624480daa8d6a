#!/usr/bin/env python
"""Phone lifetime: 3 years of a 64 GB phone, four storage designs.

The paper's central comparison (§4): run the same synthetic personal
workload against today's TLC device, a QLC device, a naive all-PLC
device, and SOS -- then put carbon, wear, media quality, and critical-
data risk side by side.

Run:  python examples/phone_lifetime.py [--mix typical|heavy|light] [--years N]
"""

from __future__ import annotations

import argparse

from repro.analysis.reporting import format_table
from repro.sim.baselines import (
    build_plc_naive,
    build_qlc_baseline,
    build_sos,
    build_tlc_baseline,
)
from repro.sim.engine import run_lifetime
from repro.workloads.apps import daily_write_gb
from repro.workloads.mobile import MobileWorkload, WorkloadConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mix", default="typical",
                        choices=("light", "typical", "heavy", "adversarial"))
    parser.add_argument("--years", type=int, default=3)
    parser.add_argument("--capacity-gb", type=float, default=64.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    print(f"workload: '{args.mix}' mix, ~{daily_write_gb(args.mix):.1f} GB/day "
          f"nominal, {args.years} years, {args.capacity_gb:.0f} GB devices\n")
    volumes = MobileWorkload(
        WorkloadConfig(mix=args.mix, days=args.years * 365, seed=args.seed)
    ).daily_volume_arrays()

    builders = {
        "TLC (status quo)": build_tlc_baseline,
        "QLC": build_qlc_baseline,
        "PLC naive": build_plc_naive,
        "SOS": build_sos,
    }
    rows = []
    for label, builder in builders.items():
        build = builder(args.capacity_gb)
        result = run_lifetime(build, volumes)
        final = result.final
        rows.append([
            label,
            f"{result.embodied_kg:.2f}",
            f"{final.sys_wear_fraction * 100:.1f}%",
            f"{final.spare_quality:.3f}",
            f"{final.sys_uncorrectable:.1e}",
            f"{final.capacity_gb:.1f}",
            "yes" if result.survived() else "degraded",
        ])
    print(format_table(
        ["device", "embodied kg CO2e", "worst wear", "media quality",
         "E[uncorrectable]", "capacity left (GB)", f"healthy at {args.years}y"],
        rows,
    ))
    sos_kg = float(rows[3][1])
    tlc_kg = float(rows[0][1])
    print(f"\nSOS saves {tlc_kg - sos_kg:.2f} kg CO2e per device vs TLC "
          f"({(1 - sos_kg / tlc_kg) * 100:.0f}% of the storage footprint).")
    print("Scaled to a billion phones a year, that is "
          f"~{(tlc_kg - sos_kg) * 1e9 / 1e9:.1f} Mt CO2e annually.")


if __name__ == "__main__":
    main()
