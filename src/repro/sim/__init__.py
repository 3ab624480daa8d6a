"""Lifetime simulation: the epoch-aggregated device model and its engine.

The multi-year half of the reproduction: block-group wear/retention
models sharing the flash/ECC parameter tables with the bit-exact chip,
device builds for SOS and its baselines, and one epoch engine
(:mod:`repro.sim.batch`) that steps device populations a day at a time.
It takes a workload's daily volume arrays and returns every device's
end state as one :class:`BatchEndState` of arrays, which every fleet
reads column by column; a single device (:func:`run_lifetime`, read by
E3/E8/E11) is its one-row case, returned as a :class:`LifetimeResult`,
and single-device traces carry ``device: 0``.  The scalar per-device
engine it replaced is the test oracle in
``tests/sim/lifetime_oracle.py``.
"""

from .baselines import (
    ALL_BUILDERS,
    DeviceBuild,
    build_plc_naive,
    build_qlc_baseline,
    build_sos,
    build_tlc_baseline,
)
from .batch import (
    BatchEndState,
    BatchLifetimeDevice,
    BatchPartition,
    SummaryBatch,
    run_lifetime_batch,
)
from .engine import run_lifetime
from .lifetime import DaySample, LifetimeResult, PartitionSpec
from .replay import ReplayStats, replay

__all__ = [
    "ALL_BUILDERS",
    "DeviceBuild",
    "build_plc_naive",
    "build_qlc_baseline",
    "build_sos",
    "build_tlc_baseline",
    "BatchEndState",
    "BatchLifetimeDevice",
    "BatchPartition",
    "SummaryBatch",
    "run_lifetime_batch",
    "DaySample",
    "LifetimeResult",
    "run_lifetime",
    "PartitionSpec",
    "ReplayStats",
    "replay",
]
