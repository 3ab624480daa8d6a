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

Each builder also reports the device's embodied-carbon intensity so the
lifetime engine can put carbon and reliability on one table (E11).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.carbon.embodied import intensity_kg_per_gb, mixed_intensity_kg_per_gb
from repro.ecc.policy import POLICIES, ProtectionLevel
from repro.flash.cell import CellTechnology, native_mode, pseudo_mode

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


def build_tlc_baseline(capacity_gb: float = 64.0) -> DeviceBuild:
    """Conventional TLC personal device."""
    spec = PartitionSpec(
        name="main",
        mode=native_mode(CellTechnology.TLC),
        protection=POLICIES[ProtectionLevel.STRONG],
        capacity_gb=capacity_gb,
        wear_leveling=True,
    )
    return DeviceBuild(
        name="tlc_baseline",
        device=_device(spec),
        capacity_gb=capacity_gb,
        intensity_kg_per_gb=intensity_kg_per_gb(CellTechnology.TLC),
    )


def build_qlc_baseline(capacity_gb: float = 64.0) -> DeviceBuild:
    """Conventional QLC device (the vendor density roadmap)."""
    spec = PartitionSpec(
        name="main",
        mode=native_mode(CellTechnology.QLC),
        protection=POLICIES[ProtectionLevel.STRONG],
        capacity_gb=capacity_gb,
        wear_leveling=True,
    )
    return DeviceBuild(
        name="qlc_baseline",
        device=_device(spec),
        capacity_gb=capacity_gb,
        intensity_kg_per_gb=intensity_kg_per_gb(CellTechnology.QLC),
    )


def build_plc_naive(capacity_gb: float = 64.0) -> DeviceBuild:
    """All-PLC at native density with conventional management only.

    Maximum density, but critical data shares the low-endurance,
    short-retention medium with everything else -- the configuration
    §4.2 exists to avoid.
    """
    spec = PartitionSpec(
        name="main",
        mode=native_mode(CellTechnology.PLC),
        protection=POLICIES[ProtectionLevel.STRONG],
        capacity_gb=capacity_gb,
        wear_leveling=True,
    )
    return DeviceBuild(
        name="plc_naive",
        device=_device(spec),
        capacity_gb=capacity_gb,
        intensity_kg_per_gb=intensity_kg_per_gb(CellTechnology.PLC),
    )


def build_sos(
    capacity_gb: float = 64.0,
    spare_fraction: float = 0.5,
    spare_protection: ProtectionLevel = ProtectionLevel.NONE,
    scrub_enabled: bool = True,
    spare_wear_leveling: bool = False,
) -> DeviceBuild:
    """The paper's SOS split (parameterized for the ablations)."""
    plc = CellTechnology.PLC
    sys_spec = PartitionSpec(
        name="sys",
        mode=pseudo_mode(plc, 4),
        protection=POLICIES[ProtectionLevel.STRONG],
        capacity_gb=capacity_gb * (1.0 - spare_fraction),
        wear_leveling=True,
        max_rber=5e-3,
    )
    spare_spec = PartitionSpec(
        name="spare",
        mode=native_mode(plc),
        protection=POLICIES[spare_protection],
        capacity_gb=capacity_gb * spare_fraction,
        wear_leveling=spare_wear_leveling,
        max_rber=4e-4,
        resuscitation_bits=(3, 1),
        scrub_enabled=scrub_enabled,
        scrub_quality_floor=0.85,
    )
    intensity = mixed_intensity_kg_per_gb(
        {pseudo_mode(plc, 4): 1.0 - spare_fraction, native_mode(plc): spare_fraction}
    )
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
