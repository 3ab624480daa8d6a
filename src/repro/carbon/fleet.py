"""Device-fleet simulation: replacement cycles drive flash production.

§2.3.2's conclusion -- "over half of all flash bits manufactured
annually will be discarded and replaced over three times in the coming
decade" -- is a statement about fleets, not single devices.  This module
simulates a population of devices per market class over a decade:

* each class replaces its devices every ``replacement_years`` (phones
  2.5y, SSDs 6y, ...), discarding the old flash (§2.3.3: reuse ~never
  happens);
* the installed base grows with demand, so production covers *growth*
  plus *replacement*;
* the flash inside each discarded personal device has consumed only a
  small fraction of its endurance (E3) -- the waste SOS monetizes.

The simulator reports, per class, how many times the original capacity
was re-manufactured over the horizon and how much embodied carbon the
replacement churn represents.
"""

from __future__ import annotations

from dataclasses import dataclass

from .embodied import BASELINE_INTENSITY_KG_PER_GB
from .market import DEVICE_CLASSES, MARKET_SHARE_2020, DeviceClass

__all__ = ["FleetConfig", "ClassOutcome", "FleetOutcome", "simulate_fleet"]

#: Installed flash base at year 0 (EB), split by market share.
INSTALLED_BASE_EB = 2000.0


@dataclass(frozen=True, slots=True)
class FleetConfig:
    """Fleet simulation parameters.

    Attributes
    ----------
    horizon_years:
        Simulated span (the paper talks about "the coming decade").
    demand_growth:
        Annual growth of the installed base (new use cases).
    intensity_kg_per_gb:
        Embodied intensity applied to manufactured bits.
    """

    horizon_years: int = 10
    demand_growth: float = 0.10
    intensity_kg_per_gb: float = BASELINE_INTENSITY_KG_PER_GB


@dataclass(frozen=True, slots=True)
class ClassOutcome:
    """Decade outcome for one device class."""

    name: str
    share: float
    installed_eb_start: float
    installed_eb_end: float
    manufactured_eb: float
    replacement_multiplier: float
    embodied_mt: float


@dataclass(frozen=True, slots=True)
class FleetOutcome:
    """Aggregate decade outcome."""

    classes: list[ClassOutcome]

    @property
    def total_manufactured_eb(self) -> float:
        """All bits manufactured over the horizon."""
        return sum(c.manufactured_eb for c in self.classes)

    @property
    def total_embodied_mt(self) -> float:
        """Embodied carbon of all manufacturing over the horizon."""
        return sum(c.embodied_mt for c in self.classes)

    def personal_replacement_multiplier(self) -> float:
        """Share-weighted replacement multiplier of personal classes."""
        personal = [c for c in self.classes if c.name in ("smartphone", "tablet", "memory_card")]
        weight = sum(c.share for c in personal)
        return sum(c.share * c.replacement_multiplier for c in personal) / weight

    def personal_bit_share(self) -> float:
        """Fraction of manufactured bits going to personal classes."""
        personal = sum(
            c.manufactured_eb
            for c in self.classes
            if c.name in ("smartphone", "tablet", "memory_card")
        )
        return personal / self.total_manufactured_eb


def _simulate_class(
    device: DeviceClass, share: float, config: FleetConfig
) -> ClassOutcome:
    installed = INSTALLED_BASE_EB * share
    start = installed
    manufactured = 0.0
    for _year in range(config.horizon_years):
        # growth requires new bits; replacement re-manufactures a
        # 1/replacement_years slice of the installed base every year
        growth = installed * config.demand_growth
        replacement = installed * (1.0 - device.flash_reuse_probability) / device.replacement_years
        manufactured += growth + replacement
        installed += growth
    embodied_kg = manufactured * 1e9 * config.intensity_kg_per_gb  # EB -> GB
    return ClassOutcome(
        name=device.name,
        share=share,
        installed_eb_start=start,
        installed_eb_end=installed,
        manufactured_eb=manufactured,
        replacement_multiplier=manufactured / start,
        embodied_mt=embodied_kg / 1e9,
    )


def simulate_fleet(config: FleetConfig | None = None) -> FleetOutcome:
    """Simulate all market classes over the horizon."""
    config = config or FleetConfig()
    outcomes = [
        _simulate_class(DEVICE_CLASSES[name], share, config)
        for name, share in MARKET_SHARE_2020.items()
    ]
    return FleetOutcome(classes=outcomes)
