"""Partition construction and density accounting (§4.1-§4.2).

Builds the physical SYS/SPARE split over a PLC chip and computes the
density/capacity arithmetic behind the paper's headline numbers:

* TLC -> QLC: +33% density; TLC -> PLC: +66%;
* a 50/50 PLC + pseudo-QLC device averages 4.5 operating bits/cell:
  **+50% capacity over TLC** for the same cells (equivalently, 2/3 the
  silicon -- and embodied carbon -- for the same capacity), and ~+12.5%
  over QLC (the paper rounds to 10%).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ecc.policy import POLICIES
from repro.flash.cell import CellMode, CellTechnology
from repro.flash.chip import FlashChip
from repro.ftl.ftl import Ftl
from repro.ftl.streams import StreamConfig
from repro.ftl.wear_leveling import WearLevelerConfig
from repro.host.hints import Placement

from .config import (
    SPARE_GC, SPARE_HEALTH, SPARE_MODE, SPARE_PROTECTION, SPARE_WEAR_LEVELING,
    SYS_GC, SYS_HEALTH, SYS_MODE, SYS_PROTECTION, SYS_WEAR_LEVELING, TECHNOLOGY,
    SOSConfig,
)

__all__ = ["PartitionedDevice", "build_partitions", "density_gain", "capacity_gain_over"]


@dataclass(frozen=True, slots=True)
class PartitionedDevice:
    """A chip partitioned into SYS and SPARE streams behind an FTL."""

    chip: FlashChip
    ftl: Ftl
    config: SOSConfig

    @property
    def sys_blocks(self) -> int:
        """Block count of the SYS partition."""
        return len(self.ftl.stream(Placement.SYS.value).blocks)

    @property
    def spare_blocks(self) -> int:
        """Block count of the SPARE partition."""
        return len(self.ftl.stream(Placement.SPARE.value).blocks)


def build_partitions(config: SOSConfig) -> PartitionedDevice:
    """Construct chip + FTL with the config's physical partition split
    and the SOS design's per-partition policies.

    Blocks are interleaved between partitions (round-robin by fraction)
    rather than split contiguously, approximating how real devices stripe
    partitions across planes/dies for parallelism.  Each stream is named
    by its :class:`~repro.host.hints.Placement` value.
    """
    chip = FlashChip(config.geometry, TECHNOLOGY, seed=config.seed)
    total = config.geometry.total_blocks
    spare_count = round(total * config.spare_fraction)
    if spare_count in (0, total):
        raise ValueError("partition split leaves an empty partition")
    # deterministic interleave: spread SPARE blocks evenly over the chip
    spare_indices = {round(i * total / spare_count) for i in range(spare_count)}
    spare_blocks = sorted(i for i in spare_indices if i < total)
    # rounding collisions can drop a block; backfill from unused indices
    pool = (i for i in range(total) if i not in spare_indices)
    while len(spare_blocks) < spare_count:
        spare_blocks.append(next(pool))
    spare_set = set(spare_blocks)
    sys_blocks = [i for i in range(total) if i not in spare_set]
    streams = [
        StreamConfig(
            name=Placement.SYS.value,
            mode=SYS_MODE,
            protection=POLICIES[SYS_PROTECTION],
            gc_policy=SYS_GC,
            wear_leveling=WearLevelerConfig(enabled=SYS_WEAR_LEVELING),
            health=SYS_HEALTH,
        ),
        StreamConfig(
            name=Placement.SPARE.value,
            mode=SPARE_MODE,
            protection=POLICIES[SPARE_PROTECTION],
            gc_policy=SPARE_GC,
            wear_leveling=WearLevelerConfig(enabled=SPARE_WEAR_LEVELING),
            health=SPARE_HEALTH,
        ),
    ]
    ftl = Ftl(
        chip, streams,
        {Placement.SYS.value: sys_blocks, Placement.SPARE.value: sorted(spare_set)},
    )
    return PartitionedDevice(chip=chip, ftl=ftl, config=config)


def density_gain(config: SOSConfig, baseline: CellTechnology = CellTechnology.TLC) -> float:
    """Fractional density gain of the SOS split over a native baseline.

    The §4.2 headline: default config vs TLC -> 0.50 exactly.
    """
    return config.mean_operating_bits / baseline.bits_per_cell - 1.0


def capacity_gain_over(
    config: SOSConfig, baseline: CellMode | CellTechnology
) -> float:
    """Capacity gain for the same cell count versus a baseline density."""
    bits = (
        baseline.operating_bits
        if isinstance(baseline, CellMode)
        else baseline.bits_per_cell
    )
    return config.mean_operating_bits / bits - 1.0
