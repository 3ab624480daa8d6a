"""SOS device configuration and presets.

Bundles every §4 policy choice into one config object:

* silicon: PLC chips, partitioned ~half/half into SYS (pseudo-QLC,
  strong ECC, wear-leveled) and SPARE (native PLC, weak/no ECC, wear
  leveling disabled) -- §4.2's "conservatively assuming each partition
  takes up about half of the device storage";
* degradation thresholds: the quality floor below which the scrubber
  preemptively migrates data (§4.3) and the RBER ceilings that drive
  block retirement/resuscitation;
* the trim fallback's free-space target ("e.g. 3% of capacity", §4.5);
* classifier conservativeness (demotion threshold).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ecc.policy import POLICIES, ProtectionLevel, ProtectionPolicy
from repro.flash.cell import CellMode, CellTechnology, native_mode, pseudo_mode
from repro.flash.geometry import SMALL_GEOMETRY, Geometry
from repro.ftl.bad_blocks import BlockHealthPolicy
from repro.ftl.gc import GcPolicy
from repro.ftl.wear_leveling import WearLevelerConfig

__all__ = ["SOSConfig", "default_config"]


@dataclass(frozen=True, slots=True)
class SOSConfig:
    """Complete configuration of one SOS device instance."""

    geometry: Geometry = SMALL_GEOMETRY
    technology: CellTechnology = CellTechnology.PLC
    #: fraction of physical blocks assigned to the SPARE partition
    spare_fraction: float = 0.5
    sys_mode: CellMode = field(
        default_factory=lambda: pseudo_mode(CellTechnology.PLC, 4)
    )
    spare_mode: CellMode = field(
        default_factory=lambda: native_mode(CellTechnology.PLC)
    )
    sys_protection: ProtectionPolicy = field(
        default_factory=lambda: POLICIES[ProtectionLevel.STRONG]
    )
    spare_protection: ProtectionPolicy = field(
        default_factory=lambda: POLICIES[ProtectionLevel.NONE]
    )
    sys_gc: GcPolicy = GcPolicy.GREEDY
    spare_gc: GcPolicy = GcPolicy.COST_BENEFIT
    sys_wear_leveling: WearLevelerConfig = field(
        default_factory=lambda: WearLevelerConfig(enabled=True)
    )
    #: §4.3: preemptive wear leveling is DISABLED on SPARE
    spare_wear_leveling: WearLevelerConfig = field(
        default_factory=lambda: WearLevelerConfig(enabled=False)
    )
    #: RBER the SYS ECC must keep correctable over its retention horizon
    sys_max_rber: float = 5e-3
    #: RBER ceiling for acceptable SPARE media quality
    spare_max_rber: float = 4e-4
    #: retention horizon used in block health checks (years)
    health_retention_years: float = 1.0
    #: classifier demotion threshold (P(critical) below which -> SPARE)
    demote_threshold: float = 0.35
    #: scrubber migrates SPARE data whose predicted quality falls below this
    scrub_quality_floor: float = 0.85
    #: §4.5: trim until this fraction of capacity is free, then resume
    trim_free_target: float = 0.03
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.spare_fraction < 1.0:
            raise ValueError("spare_fraction must be in (0, 1)")
        if self.sys_mode.technology is not self.technology:
            raise ValueError("sys_mode must use the device technology")
        if self.spare_mode.technology is not self.technology:
            raise ValueError("spare_mode must use the device technology")

    def sys_health(self) -> BlockHealthPolicy:
        """Health thresholds for SYS blocks (retire only; SYS never
        drops below the density the capacity plan promised)."""
        return BlockHealthPolicy(
            max_rber=self.sys_max_rber,
            retention_horizon_years=self.health_retention_years,
            resuscitation_modes=(),
        )

    def spare_health(self) -> BlockHealthPolicy:
        """Health thresholds for SPARE blocks with the §4.3 resuscitation
        ladder: worn PLC is reborn as pseudo-TLC, then pseudo-SLC."""
        return BlockHealthPolicy(
            max_rber=self.spare_max_rber,
            retention_horizon_years=self.health_retention_years,
            resuscitation_modes=(
                pseudo_mode(self.technology, 3),
                pseudo_mode(self.technology, 1),
            ),
        )

    @property
    def mean_operating_bits(self) -> float:
        """Capacity-weighted bits per cell across both partitions."""
        return (
            self.spare_fraction * self.spare_mode.operating_bits
            + (1.0 - self.spare_fraction) * self.sys_mode.operating_bits
        )


def default_config(**overrides) -> SOSConfig:
    """The paper's default SOS configuration, with optional overrides."""
    return SOSConfig(**overrides)
