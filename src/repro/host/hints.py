"""Host-to-device placement hints.

§4.3: "classification information is sent to the storage device for each
stored data block ... using LBA hints from the host."  We model the hint
channel as a small enum (which partition) plus a structured record the
classifier daemon emits per file.  A :class:`Placement`'s value is the
name of the FTL stream implementing that partition: the enum is the one
home of the partition names, and the FTL's page map is the one record of
which partition holds a page.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["Placement", "PlacementHint"]


class Placement(enum.Enum):
    """Which physical partition should hold the data."""

    SYS = "sys"      # critical: pseudo-QLC, strong ECC, wear-leveled
    SPARE = "spare"  # degradable: PLC, weak/no ECC, no wear leveling


@dataclass(frozen=True, slots=True)
class PlacementHint:
    """One classification decision flowing host -> device.

    Attributes
    ----------
    file_id:
        Host file the hint concerns.
    placement:
        Target partition.
    confidence:
        Classifier confidence in [0, 1]; the device may ignore
        low-confidence demotions (conservative policy, §4.2).
    """

    file_id: int
    placement: Placement
    confidence: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")
