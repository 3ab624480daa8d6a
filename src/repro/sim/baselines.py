"""Device configurations for lifetime comparisons: SOS and its baselines.

§4's comparison set, all at equal *user-visible capacity*:

* **TLC baseline** -- today's personal device: native TLC, strong ECC,
  wear-leveled (the status quo SOS improves on);
* **QLC baseline** -- the density step vendors are taking anyway;
* **PLC naive** -- all-PLC at native density with conventional
  management, no SOS protections (what "just use denser flash" without
  the co-design would look like);
* **SOS** -- the paper's split: half pseudo-QLC SYS (strong ECC, WL on),
  half native-PLC SPARE (no ECC, WL off, scrub + resuscitation ladder).

:func:`build_sos` reads the SOS design from :mod:`repro.core.config`,
the same constants the bit-exact device's partitions are built from;
only the ablated values (the split, SPARE's protection, the scrub
switch) are its parameters.

Each builder also reports the device's embodied-carbon intensity so the
lifetime engine can put carbon and reliability on one table (E11).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.carbon.embodied import intensity_kg_per_gb, mixed_intensity_kg_per_gb
from repro.core.config import (
    DEFAULT_SPARE_FRACTION, SCRUB_QUALITY_FLOOR, SPARE_MAX_RBER, SPARE_MODE,
    SPARE_PROTECTION, SPARE_RESUSCITATION_BITS, SPARE_WEAR_LEVELING, SYS_MAX_RBER,
    SYS_MODE, SYS_PROTECTION, SYS_WEAR_LEVELING, cell_mix,
)
from repro.ecc.policy import POLICIES, ProtectionLevel
from repro.flash.cell import CellTechnology, native_mode

from .batch import BatchLifetimeDevice, BatchPartition
from .lifetime import PartitionSpec

__all__ = ["DeviceBuild", "build_tlc_baseline", "build_qlc_baseline", "build_plc_naive", "build_sos", "ALL_BUILDERS"]


@dataclass(frozen=True, slots=True)
class DeviceBuild:
    """A lifetime-model device plus its carbon bookkeeping."""

    name: str
    #: one-row epoch-engine state; runs update it in place
    device: BatchLifetimeDevice
    capacity_gb: float
    intensity_kg_per_gb: float

    @property
    def embodied_kg(self) -> float:
        """Total embodied carbon of the device."""
        return self.capacity_gb * self.intensity_kg_per_gb


def _device(*specs: PartitionSpec) -> BatchLifetimeDevice:
    """A fresh one-device epoch-engine state with ``specs``' partitions."""
    return BatchLifetimeDevice({spec.name: BatchPartition(spec, 1) for spec in specs})


@lru_cache(maxsize=64)
def _native_spec(technology: CellTechnology, capacity_gb: float) -> PartitionSpec:
    """One wear-leveled, strongly protected partition of native-density
    ``technology`` cells; immutable, so every build of that technology
    and capacity shares it."""
    return PartitionSpec(
        name="main",
        mode=native_mode(technology),
        protection=POLICIES[ProtectionLevel.STRONG],
        capacity_gb=capacity_gb,
        wear_leveling=True,
    )


def _native_build(name: str, technology: CellTechnology, capacity_gb: float) -> DeviceBuild:
    """A :func:`_native_spec` device: the conventional-management builds."""
    return DeviceBuild(
        name=name,
        device=_device(_native_spec(technology, capacity_gb)),
        capacity_gb=capacity_gb,
        intensity_kg_per_gb=intensity_kg_per_gb(technology),
    )


def build_tlc_baseline(capacity_gb: float = 64.0) -> DeviceBuild:
    """Conventional TLC personal device."""
    return _native_build("tlc_baseline", CellTechnology.TLC, capacity_gb)


def build_qlc_baseline(capacity_gb: float = 64.0) -> DeviceBuild:
    """Conventional QLC device (the vendor density roadmap)."""
    return _native_build("qlc_baseline", CellTechnology.QLC, capacity_gb)


def build_plc_naive(capacity_gb: float = 64.0) -> DeviceBuild:
    """All-PLC at native density with conventional management only.

    Maximum density, but critical data shares the low-endurance,
    short-retention medium with everything else -- the configuration
    §4.2 exists to avoid.
    """
    return _native_build("plc_naive", CellTechnology.PLC, capacity_gb)


def build_sos(
    capacity_gb: float = 64.0,
    spare_fraction: float = DEFAULT_SPARE_FRACTION,
    spare_protection: ProtectionLevel = SPARE_PROTECTION,
    scrub_enabled: bool = True,
) -> DeviceBuild:
    """The paper's SOS split (parameterized for the ablations)."""
    sys_spec = PartitionSpec(
        name="sys",
        mode=SYS_MODE,
        protection=POLICIES[SYS_PROTECTION],
        capacity_gb=capacity_gb * (1.0 - spare_fraction),
        wear_leveling=SYS_WEAR_LEVELING,
        max_rber=SYS_MAX_RBER,
    )
    spare_spec = PartitionSpec(
        name="spare",
        mode=SPARE_MODE,
        protection=POLICIES[spare_protection],
        capacity_gb=capacity_gb * spare_fraction,
        wear_leveling=SPARE_WEAR_LEVELING,
        max_rber=SPARE_MAX_RBER,
        resuscitation_bits=SPARE_RESUSCITATION_BITS,
        scrub_enabled=scrub_enabled,
        scrub_quality_floor=SCRUB_QUALITY_FLOOR,
    )
    intensity = mixed_intensity_kg_per_gb(cell_mix(spare_fraction))
    return DeviceBuild(
        name="sos",
        device=_device(sys_spec, spare_spec),
        capacity_gb=capacity_gb,
        intensity_kg_per_gb=intensity,
    )


ALL_BUILDERS = {
    "tlc_baseline": build_tlc_baseline,
    "qlc_baseline": build_qlc_baseline,
    "plc_naive": build_plc_naive,
    "sos": build_sos,
}
