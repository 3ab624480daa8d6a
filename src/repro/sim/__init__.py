"""Lifetime simulation: the epoch-aggregated device model and its engine.

The multi-year half of the reproduction: block-group wear/retention
models sharing the flash/ECC parameter tables with the bit-exact chip,
device builds for SOS and its baselines, and one epoch engine
(:mod:`repro.sim.batch`) that steps device populations a day at a time
and produces E3/E8/E11's series as well as every fleet's; a single
device (:func:`run_lifetime`) is its one-row case, and single-device
traces carry ``device: 0``.  The scalar per-device engine it replaced
is the test oracle in ``tests/sim/lifetime_oracle.py``.
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
    BatchLifetimeDevice,
    BatchPartition,
    SummaryBatch,
    run_lifetime_batch,
)
from .engine import run_lifetime
from .lifetime import DaySample, LifetimeResult, PartitionSpec, SimConfig
from .replay import ReplayStats, replay

__all__ = [
    "ALL_BUILDERS",
    "DeviceBuild",
    "build_plc_naive",
    "build_qlc_baseline",
    "build_sos",
    "build_tlc_baseline",
    "BatchLifetimeDevice",
    "BatchPartition",
    "SummaryBatch",
    "run_lifetime_batch",
    "DaySample",
    "LifetimeResult",
    "SimConfig",
    "run_lifetime",
    "PartitionSpec",
    "ReplayStats",
    "replay",
]
