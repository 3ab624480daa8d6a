#!/usr/bin/env python
"""Fleet carbon: what would worldwide SOS adoption be worth?

Combines the market model (Figure 1), the replacement-rate analysis
(§2.3), and the 2021-2030 production projection (§1/§3) to answer the
question the paper motivates: if personal flash (phones, tablets, cards)
switched from TLC-class to SOS's PLC/pseudo-QLC split, how many megatons
of CO2e per year does that avoid by decade's end?

Run:  python examples/fleet_carbon.py [--adoption 0..1]
"""

from __future__ import annotations

import argparse

from repro.analysis.reporting import format_table
from repro.carbon.credits import EU_ETS_PEAK_2022, credit_cost_per_tb
from repro.carbon.embodied import intensity_kg_per_gb, mixed_intensity_kg_per_gb
from repro.carbon.market import MARKET_SHARE_2020, personal_share
from repro.carbon.projection import ProjectionConfig, project
from repro.core.config import DEFAULT_SPARE_FRACTION, cell_mix
from repro.flash.cell import CellTechnology


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--adoption", type=float, default=1.0,
                        help="fraction of personal-device flash using SOS by 2030")
    args = parser.parse_args()

    sos_intensity_ratio = mixed_intensity_kg_per_gb(
        cell_mix(DEFAULT_SPARE_FRACTION)
    ) / intensity_kg_per_gb(CellTechnology.TLC)
    personal = personal_share(include_memory_cards=True)

    print("market (Figure 1):")
    for device, share in MARKET_SHARE_2020.items():
        print(f"  {device:<12} {share * 100:.0f}%")
    print(f"personal share of flash bits: {personal * 100:.0f}%")
    print(f"SOS intensity vs TLC: {sos_intensity_ratio * 100:.1f}% "
          f"(a {(1 - sos_intensity_ratio) * 100:.1f}% cut)\n")

    points = project(ProjectionConfig())
    rows = []
    for point in points:
        addressable = point.emissions_mt * personal
        avoided = addressable * (1 - sos_intensity_ratio) * args.adoption
        rows.append([
            point.year,
            f"{point.emissions_mt:.0f}",
            f"{addressable:.0f}",
            f"{avoided:.0f}",
            f"{avoided / point.emissions_mt * 100:.1f}%",
        ])
    print(format_table(
        ["year", "flash emissions (Mt)", "personal share (Mt)",
         f"avoided @ {args.adoption * 100:.0f}% adoption (Mt)", "of all flash"],
        rows,
    ))
    final = points[-1]
    avoided_2030 = final.emissions_mt * personal * (1 - sos_intensity_ratio) * args.adoption
    people = avoided_2030 * 1e6 / 4.4 / 1e6
    credit_value = avoided_2030 * 1e6 * EU_ETS_PEAK_2022.usd_per_tonne / 1e9
    print(f"\nby 2030 SOS avoids ~{avoided_2030:.0f} Mt CO2e/year "
          f"(annual emissions of ~{people:.0f}M people), worth "
          f"~${credit_value:.1f}B/year at the EU ETS peak price.")
    print(f"for scale: one TB of TLC flash embeds "
          f"${credit_cost_per_tb(EU_ETS_PEAK_2022):.2f} of carbon credits.")


if __name__ == "__main__":
    main()
