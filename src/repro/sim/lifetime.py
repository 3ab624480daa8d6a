"""Epoch-aggregated device lifetime model: specs, engine config, results.

Multi-year experiments (E3, E8, E11) cannot run the bit-exact chip --
a 64 GB device sees ~10^13 bit operations over a phone's life -- so this
model aggregates at two levels:

* time: one step per simulated day;
* space: each partition is divided into ``n_groups`` *block groups*
  (~5% of capacity each) that wear, age, retire, and resuscitate as
  units.

Both fidelities share the same parameter tables
(:mod:`repro.flash.reliability`, :mod:`repro.flash.error_model`,
:mod:`repro.ecc.model`), so the epoch model is the analytic closure of
the bit-exact simulator, not a separate theory; the test suite checks
they agree on RBER and failure probabilities at matched operating points.

Wear placement policy per partition:

* ``wear_leveling=True``: writes spread evenly over live groups (plus a
  small WL write-amplification overhead) -- classic SSD behaviour;
* ``wear_leveling=False`` (SOS SPARE): *churn* writes concentrate on a
  hot subset of groups while *new* data appends round-robin to the
  coldest groups -- worn blocks are simply allowed to wear (§4.3).

This module holds the model's static types: :class:`PartitionSpec`,
and the end-of-life :class:`DaySample` a single-device run returns in a
:class:`LifetimeResult` -- the one state the paper's lifetime claims
read (wear at disposal, capacity left, SPARE quality).  Group state and
the one epoch engine that steps it live in :mod:`repro.sim.batch`,
which keeps one array per group field with a leading device axis and
returns a population's end state as one array per field; a single
device is its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import HEALTH_HORIZON_YEARS, SCRUB_QUALITY_FLOOR, SYS_MAX_RBER
from repro.ecc.policy import ProtectionPolicy
from repro.faults.plan import FaultSummary
from repro.flash.cell import CellMode

__all__ = [
    "PartitionSpec",
    "DaySample",
    "LifetimeResult",
]

#: Extra write volume caused by static wear leveling migrations.
WL_WRITE_OVERHEAD = 0.10

#: Fraction of groups absorbing churn when wear leveling is off.
HOT_GROUP_FRACTION = 0.25

#: Fraction of media bytes the classifier demotes to SPARE (SOS only):
#: the measured classifier operating point (~0.8 of media is low-value).
MEDIA_DEMOTION_RATE = 0.8


@dataclass(frozen=True, slots=True)
class PartitionSpec:
    """Static configuration of one modelled partition."""

    name: str
    mode: CellMode
    protection: ProtectionPolicy
    capacity_gb: float
    waf: float = 2.5
    wear_leveling: bool = True
    #: RBER ceiling for group health (ECC capability or quality budget);
    #: the default is strong ECC's, as on SOS's SYS
    max_rber: float = SYS_MAX_RBER
    #: retention horizon for health checks (years)
    health_horizon_years: float = HEALTH_HORIZON_YEARS
    #: reduced-density operating bits ladder for resuscitation (§4.3)
    resuscitation_bits: tuple[int, ...] = ()
    #: periodic refresh (scrub) when quality forecast violates the floor
    scrub_enabled: bool = False
    scrub_quality_floor: float = SCRUB_QUALITY_FLOOR
    n_groups: int = 20

    def __post_init__(self) -> None:
        if self.n_groups < 1:
            raise ValueError("n_groups must be at least 1")
        # each group's share too: the epoch engine divides by a
        # collapsed partition's capacity without testing it
        if not self.capacity_gb / self.n_groups > 0.0:
            raise ValueError(
                f"capacity_gb must be positive, not {self.capacity_gb!r}"
            )


@dataclass(frozen=True, slots=True)
class DaySample:
    """Device state after one day: ``day`` is that day's label."""

    day: int
    years: float
    capacity_gb: float
    sys_wear_fraction: float
    spare_wear_fraction: float
    spare_quality: float
    sys_uncorrectable: float
    retired_groups: int
    resuscitated_groups: int


@dataclass(slots=True)
class LifetimeResult:
    """Full output of one lifetime run."""

    build_name: str
    capacity_gb: float
    intensity_kg_per_gb: float
    #: end-of-life state, taken once after the last day
    final: DaySample
    #: structured fault counters; None when the run had no fault plan
    faults: FaultSummary | None = None

    @property
    def embodied_kg(self) -> float:
        """Embodied carbon of the device under test."""
        return self.capacity_gb * self.intensity_kg_per_gb

    def survived(self, min_capacity_fraction: float = 0.9, quality_floor: float = 0.8) -> bool:
        """Did the device end its life usable?

        Usable = capacity above ``min_capacity_fraction`` of the original
        and (where applicable) SPARE quality above ``quality_floor``.
        """
        last = self.final
        return (
            last.capacity_gb >= min_capacity_fraction * self.capacity_gb
            and last.spare_quality >= quality_floor
        )
