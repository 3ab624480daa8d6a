"""NAND flash substrate: cells, geometry, error physics, blocks, chips.

This package simulates the storage medium the paper's design manipulates
(§2.1-§2.2): multi-level cells with density-dependent endurance, erase
blocks with sequential-program constraints, and an analytic raw-bit-error
model covering wear, retention, and read disturb.
"""

from .block import Block, PageState, ProgramError
from .cell import CellMode, CellTechnology, native_mode, pseudo_mode
from .chip import FlashChip, PhysicalAddress
from .error_model import ErrorModel, RberBreakdown
from .geometry import MOBILE_GEOMETRY, SMALL_GEOMETRY, Geometry
from .timing import OperationTimes, TimingModel
from .reliability import (
    ENDURANCE_TABLE,
    RETENTION_SPEC_YEARS,
    EnduranceSpec,
    endurance_pec,
    retention_years,
)

__all__ = [
    "Block",
    "PageState",
    "ProgramError",
    "CellMode",
    "CellTechnology",
    "native_mode",
    "pseudo_mode",
    "FlashChip",
    "PhysicalAddress",
    "ErrorModel",
    "RberBreakdown",
    "Geometry",
    "SMALL_GEOMETRY",
    "MOBILE_GEOMETRY",
    "ENDURANCE_TABLE",
    "RETENTION_SPEC_YEARS",
    "EnduranceSpec",
    "endurance_pec",
    "retention_years",
    "OperationTimes",
    "TimingModel",
]
