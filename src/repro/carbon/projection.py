"""Flash production and carbon-footprint projection, 2021 -> 2030.

Reproduces §1/§3's trajectory:

* 2021 flash capacity production ~765 EB [Forbes/FMS '22];
* embodied emissions 0.16 kg CO2e/GB -> ~122 Mt CO2e, "equivalent to the
  average annual CO2 emissions of 28M people" at the ~4.4 t/person world
  average [World Bank];
* bit production grows with data demand (20-30%/yr) *plus* flash's rising
  share of storage sales (SSDs displacing HDDs, higher-capacity phones);
* per-GB intensity falls as 3D layer stacking improves material
  utilization (vendors project ~4x density by 2030), but -- the paper's
  point -- slower than demand grows, because added layers add process
  steps: we model intensity reaching :data:`INTENSITY_FACTOR_END` (0.5x)
  by 2030 rather than the full 1/4;
* by 2030 the footprint reaches "the equivalent of over 150M people",
  about 1.7% of world emissions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .embodied import BASELINE_INTENSITY_KG_PER_GB

__all__ = ["ProjectionConfig", "YearPoint", "project", "people_equivalent"]

#: World Bank world-average per-capita emissions (tonnes CO2e / person / yr).
WORLD_PER_CAPITA_TONNES = 4.4

#: Projected world annual emissions circa 2030 (Mt CO2e) for share-of-world
#: calculations (~40 Gt trajectory).
WORLD_EMISSIONS_2030_MT = 40_000.0

#: Flash bits produced in the base year (765 EB in 2021 [Forbes/FMS '22]).
BASE_CAPACITY_EB = 765.0

#: Per-GB intensity at ``end_year`` relative to the base year's (0.5 =
#: halved; geometric interpolation between).
INTENSITY_FACTOR_END = 0.5


@dataclass(frozen=True, slots=True)
class ProjectionConfig:
    """Projection knobs (defaults calibrated to the paper's citations).

    Attributes
    ----------
    base_year / end_year:
        Projection window; the base year produces
        :data:`BASE_CAPACITY_EB` at the baseline embodied intensity
        (:data:`~repro.carbon.embodied.BASELINE_INTENSITY_KG_PER_GB`).
    bit_growth_rate:
        Annual growth of flash bit production.  Data demand grows 20-30%
        and flash's share of storage rises; 0.31 combines both.
    """

    base_year: int = 2021
    end_year: int = 2030
    bit_growth_rate: float = 0.31


@dataclass(frozen=True, slots=True)
class YearPoint:
    """Projection output for one year."""

    year: int
    capacity_eb: float
    intensity_kg_per_gb: float
    emissions_mt: float
    people_equivalent_millions: float
    share_of_world_2030: float


def people_equivalent(emissions_mt: float) -> float:
    """Millions of people whose annual emissions match ``emissions_mt``."""
    return emissions_mt * 1e6 / WORLD_PER_CAPITA_TONNES / 1e6


def project(config: ProjectionConfig | None = None) -> list[YearPoint]:
    """Year-by-year projection from ``base_year`` to ``end_year``."""
    config = config or ProjectionConfig()
    if config.end_year < config.base_year:
        raise ValueError("end_year must be >= base_year")
    span = config.end_year - config.base_year
    points: list[YearPoint] = []
    for offset in range(span + 1):
        year = config.base_year + offset
        capacity_eb = BASE_CAPACITY_EB * (1.0 + config.bit_growth_rate) ** offset
        if span == 0:
            factor = 1.0
        else:
            factor = INTENSITY_FACTOR_END ** (offset / span)
        intensity = BASELINE_INTENSITY_KG_PER_GB * factor
        capacity_gb = capacity_eb * 1e9
        emissions_mt = capacity_gb * intensity / 1e9  # kg -> Mt
        points.append(
            YearPoint(
                year=year,
                capacity_eb=capacity_eb,
                intensity_kg_per_gb=intensity,
                emissions_mt=emissions_mt,
                people_equivalent_millions=people_equivalent(emissions_mt),
                share_of_world_2030=emissions_mt / WORLD_EMISSIONS_2030_MT,
            )
        )
    return points
