"""Flash translation layer substrate.

Page-mapped L2P, garbage collection, (toggleable) static wear leveling,
bad-block retirement with density resuscitation, and multi-stream/zone
partitioning -- the device-side mechanisms §4.3 of the paper manipulates.
"""

from .bad_blocks import BlockHealthPolicy, BlockVerdict, assess_block
from .ftl import Ftl, FtlStats, OutOfSpaceError
from .gc import GcPolicy, select_victim_arrays
from .mapping import PageMap
from .streams import StreamConfig
from .wear_leveling import WearLevelerConfig, pick_cold_victim
from .zones import ZoneClass, ZonedDevice, ZoneError, ZoneInfo, ZoneState

__all__ = [
    "BlockHealthPolicy",
    "BlockVerdict",
    "assess_block",
    "Ftl",
    "FtlStats",
    "OutOfSpaceError",
    "GcPolicy",
    "select_victim_arrays",
    "PageMap",
    "StreamConfig",
    "WearLevelerConfig",
    "pick_cold_victim",
    "ZoneClass",
    "ZonedDevice",
    "ZoneError",
    "ZoneInfo",
    "ZoneState",
]
