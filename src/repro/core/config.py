"""The SOS design, stated once, and the four values callers vary.

Every claim in this reproduction is about one device design, so its
values are module constants here, and both fidelities read them: the
bit-exact device (:func:`repro.core.partitions.build_partitions`) and
the epoch model (:func:`repro.sim.baselines.build_sos`).

* silicon: PLC chips, partitioned ~half/half into SYS (pseudo-QLC,
  strong ECC, wear-leveled) and SPARE (native PLC, no ECC, wear
  leveling disabled) -- §4.2's "conservatively assuming each partition
  takes up about half of the device storage";
* degradation thresholds: the RBER ceilings that drive block
  retirement, SPARE's resuscitation ladder, and the quality floor below
  which the scrubber preemptively migrates data (§4.3);
* the trim fallback's free-space target ("e.g. 3% of capacity", §4.5).

Two design values live with the code that owns them: the classifier's
demotion threshold (:data:`repro.classify.classifier.DEMOTE_THRESHOLD`)
and the P-frame quality exponent
(:data:`repro.media.quality.FRAME_SENSITIVITY`).

:class:`SOSConfig` holds only what callers vary per device: the
geometry, the SPARE share of the blocks, the trim target and the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ecc.policy import ProtectionLevel
from repro.flash.cell import CellMode, CellTechnology, native_mode, pseudo_mode
from repro.flash.geometry import SMALL_GEOMETRY, Geometry
from repro.ftl.bad_blocks import BlockHealthPolicy
from repro.ftl.gc import GcPolicy

__all__ = [
    "TECHNOLOGY", "SYS_MODE", "SPARE_MODE", "SYS_PROTECTION", "SPARE_PROTECTION",
    "SYS_GC", "SPARE_GC", "SYS_WEAR_LEVELING", "SPARE_WEAR_LEVELING",
    "SYS_MAX_RBER", "SPARE_MAX_RBER", "HEALTH_HORIZON_YEARS",
    "SPARE_RESUSCITATION_BITS", "SYS_HEALTH", "SPARE_HEALTH", "SCRUB_QUALITY_FLOOR",
    "DEFAULT_SPARE_FRACTION", "TRIM_FREE_TARGET", "cell_mix", "SOSConfig",
    "default_config",
]

#: the cells every SOS device is made of
TECHNOLOGY = CellTechnology.PLC
SYS_MODE = pseudo_mode(TECHNOLOGY, 4)
SPARE_MODE = native_mode(TECHNOLOGY)
SYS_PROTECTION = ProtectionLevel.STRONG
SPARE_PROTECTION = ProtectionLevel.NONE
SYS_GC = GcPolicy.GREEDY
SPARE_GC = GcPolicy.COST_BENEFIT
SYS_WEAR_LEVELING = True
#: §4.3: preemptive wear leveling is DISABLED on SPARE
SPARE_WEAR_LEVELING = False
#: RBER the SYS ECC must keep correctable over its retention horizon
SYS_MAX_RBER = 5e-3
#: RBER ceiling for acceptable SPARE media quality
SPARE_MAX_RBER = 4e-4
#: retention horizon used in block health checks (years)
HEALTH_HORIZON_YEARS = 1.0
#: §4.3: worn SPARE PLC is reborn as pseudo-TLC, then pseudo-SLC
SPARE_RESUSCITATION_BITS = (3, 1)
#: SYS retires worn blocks only: it never drops below the density the
#: capacity plan promised
SYS_HEALTH = BlockHealthPolicy(
    max_rber=SYS_MAX_RBER, retention_horizon_years=HEALTH_HORIZON_YEARS
)
SPARE_HEALTH = BlockHealthPolicy(
    max_rber=SPARE_MAX_RBER,
    retention_horizon_years=HEALTH_HORIZON_YEARS,
    resuscitation_modes=tuple(
        pseudo_mode(TECHNOLOGY, bits) for bits in SPARE_RESUSCITATION_BITS
    ),
)
#: scrubber migrates SPARE data whose predicted quality falls below this
SCRUB_QUALITY_FLOOR = 0.85
#: §4.2: each partition takes about half of the device
DEFAULT_SPARE_FRACTION = 0.5
#: §4.5: trim until this fraction of capacity is free, then resume
TRIM_FREE_TARGET = 0.03


def cell_mix(spare_fraction: float) -> dict[CellMode, float]:
    """Each cell mode's share of an SOS split, SYS first."""
    return {SYS_MODE: 1.0 - spare_fraction, SPARE_MODE: spare_fraction}


@dataclass(frozen=True, slots=True)
class SOSConfig:
    """What varies between SOS device instances."""

    geometry: Geometry = SMALL_GEOMETRY
    #: fraction of physical blocks assigned to the SPARE partition
    spare_fraction: float = DEFAULT_SPARE_FRACTION
    trim_free_target: float = TRIM_FREE_TARGET
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.spare_fraction < 1.0:
            raise ValueError("spare_fraction must be in (0, 1)")

    @property
    def mean_operating_bits(self) -> float:
        """Capacity-weighted bits per cell across both partitions."""
        return sum(
            mode.operating_bits * share
            for mode, share in cell_mix(self.spare_fraction).items()
        )


def default_config(**overrides) -> SOSConfig:
    """The paper's default SOS configuration, with optional overrides."""
    return SOSConfig(**overrides)
