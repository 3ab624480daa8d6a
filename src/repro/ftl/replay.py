"""Deterministic FTL workload replay: the high-fidelity device driver.

Bridges the mobile workload generator to the page-level FTL so that a
*device-accurate* simulation (real GC, wear leveling, per-block PEC) can
stand in for the epoch-level lifetime model when an experiment needs
page-granularity answers (§4.3 mechanisms: write amplification from GC,
wear spread under leveling).

The replay is **scale-free**: daily workload volumes are expressed as a
fraction of the *logical* device capacity and mapped onto a small
simulated chip, so the wear trajectory (PEC as a fraction of rated
endurance) tracks what the full-size device would see while the page
count stays small enough to replay thousands of devices.

Everything is deterministic in ``(config)``: the workload volumes come
from the seeded :class:`~repro.workloads.mobile.MobileWorkload`, the
LPN choices from a dedicated PCG64 stream, and reads/trims consult only
the (deterministic) mapping state -- never page contents.  That last
property is what makes the analytic chip fast path a drop-in: replaying
the same config with ``analytic=True`` and ``analytic=False`` performs
the identical operation sequence and lands the identical
:class:`~repro.ftl.ftl.FtlStats` (pinned by the equivalence suite).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.ecc.policy import POLICIES, ProtectionLevel
from repro.flash.cell import CellTechnology, native_mode
from repro.flash.chip import DAYS_PER_YEAR, FlashChip
from repro.flash.geometry import Geometry

from .ftl import Ftl, FtlStats
from .gc import GcPolicy
from .streams import StreamConfig

__all__ = ["FtlReplayConfig", "FtlReplayResult", "build_replay_ftl", "replay"]

#: Single data stream name used by the replay device.
STREAM = "data"


@dataclass(frozen=True, slots=True)
class FtlReplayConfig:
    """One replayed device.

    Attributes
    ----------
    mix:
        User-intensity mix key (``USER_MIXES``).
    days:
        Service days to replay.
    capacity_gb:
        Logical capacity the workload volumes are scaled against (the
        *modeled* device size; the simulated chip is much smaller).
    seed:
        Workload + op-stream + chip seed (one per device).
    analytic:
        Run eligible streams on the analytic chip fast path (no byte
        materialization).  The replay only uses transparent protection,
        so this toggles the whole device.
    page_size_bytes / pages_per_block / blocks:
        Simulated chip shape (default ~6 MB physical).
    utilization:
        Logical pages as a fraction of physical data pages; the rest is
        GC headroom (over-provisioning).
    protection:
        Protection level of the data stream.  ``NONE`` (default) is
        analytic-eligible; ``WEAK``/``STRONG`` force the bit-exact path
        regardless of ``analytic``.
    gc_policy:
        Victim-selection policy.
    wl_period_days:
        Run one static wear-leveling pass every this many days.
    """

    mix: str = "typical"
    days: int = 90
    capacity_gb: float = 64.0
    seed: int = 0
    analytic: bool = True
    page_size_bytes: int = 2048
    pages_per_block: int = 32
    blocks: int = 96
    utilization: float = 0.85
    protection: ProtectionLevel = ProtectionLevel.NONE
    gc_policy: GcPolicy = GcPolicy.GREEDY
    wl_period_days: int = 7

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise ValueError("days must be positive")
        if not 0.0 < self.utilization < 1.0:
            raise ValueError("utilization must be in (0, 1)")
        if self.blocks < 4:
            raise ValueError("need at least 4 blocks for GC headroom")
        if self.wl_period_days <= 0:
            raise ValueError("wl_period_days must be positive")

    @property
    def logical_pages(self) -> int:
        """Host-visible logical page count."""
        return int(self.blocks * self.pages_per_block * self.utilization)


@dataclass(slots=True)
class FtlReplayResult:
    """Outcome of one device replay."""

    stats: FtlStats
    #: mean / max PEC-over-rated across non-retired blocks
    mean_wear: float = 0.0
    max_wear: float = 0.0
    #: host-level operations performed (writes + reads + trims)
    host_ops: int = 0
    wall_s: float = 0.0
    retired_blocks: int = 0

    @property
    def ops_per_s(self) -> float:
        """Replay throughput in host operations per wall second."""
        return self.host_ops / self.wall_s if self.wall_s > 0 else 0.0


def build_replay_ftl(config: FtlReplayConfig) -> Ftl:
    """Construct the simulated device for one replay config."""
    geometry = Geometry(
        page_size_bytes=config.page_size_bytes,
        pages_per_block=config.pages_per_block,
        blocks_per_plane=config.blocks,
        planes_per_die=1,
        dies=1,
    )
    technology = CellTechnology.TLC
    mode = native_mode(technology)
    chip = FlashChip(geometry, technology, mode, seed=config.seed)
    stream = StreamConfig(
        name=STREAM,
        mode=mode,
        protection=POLICIES[config.protection],
        gc_policy=config.gc_policy,
    )
    return Ftl(
        chip,
        [stream],
        {STREAM: list(range(geometry.total_blocks))},
        analytic=config.analytic,
    )


def _daily_op_counts(config: FtlReplayConfig) -> dict[str, np.ndarray]:
    """Per-day write/read/trim op counts scaled to the logical space.

    A day that writes ``g`` GB against a ``capacity_gb`` device touches
    ``g / capacity_gb`` of the logical space; the same fraction of the
    replay device's logical pages is written.  Volumes come from the
    seeded workload generator, so the counts are a pure function of
    ``(mix, days, seed, capacity_gb, chip shape)``.
    """
    from repro.workloads.mobile import MobileWorkload, WorkloadConfig

    volumes = MobileWorkload(
        WorkloadConfig(mix=config.mix, days=config.days, seed=config.seed)
    ).daily_volume_arrays()
    pages = config.logical_pages
    scale = pages / config.capacity_gb

    def count(gb: np.ndarray) -> np.ndarray:
        return np.minimum(np.ceil(gb * scale), pages).astype(np.int64)

    return {
        "writes": count(
            volumes["new_media_gb"] + volumes["new_other_gb"] + volumes["overwrite_gb"]
        ),
        "reads": count(volumes["read_gb"]),
        "trims": count(volumes["delete_gb"]),
    }


def replay(config: FtlReplayConfig) -> FtlReplayResult:
    """Replay one device's workload through the page-level FTL.

    Prefills the logical space (a device in service is full of data,
    which is what makes GC work for its living), then steps day by day:
    overwrites to uniform LPNs, reads to mapped LPNs, trims, a daily
    retention-clock tick, and a weekly wear-leveling pass.
    """
    ftl = build_replay_ftl(config)
    counts = _daily_op_counts(config)
    pages = config.logical_pages
    rng = np.random.default_rng(config.seed + 1)

    t0 = time.perf_counter()
    ftl.write_many(np.arange(pages, dtype=np.int64), STREAM)
    ops = pages
    for day in range(config.days):
        writes = rng.integers(0, pages, int(counts["writes"][day]))
        reads = rng.integers(0, pages, int(counts["reads"][day]))
        trims = rng.integers(0, pages, int(counts["trims"][day]))
        ftl.write_many(writes, STREAM)
        ops += writes.size
        # trimmed LPNs are skipped deterministically: mapping state is a
        # pure function of the op stream, never of page bytes, so both
        # fidelities skip the same reads
        ops += ftl.read_many(reads, STREAM)
        ops += ftl.trim_many(trims)
        ftl.chip.advance_time((day + 1) / DAYS_PER_YEAR)
        if (day + 1) % config.wl_period_days == 0:
            ftl.run_wear_leveling(STREAM)
    wall = time.perf_counter() - t0

    arrays = ftl.chip.arrays
    live = ~arrays.retired
    wear = arrays.pec[live] / arrays.rated_pec[live]
    return FtlReplayResult(
        stats=ftl.stats,
        mean_wear=float(wear.mean()) if wear.size else 0.0,
        max_wear=float(wear.max()) if wear.size else 0.0,
        host_ops=ops,
        wall_s=wall,
        retired_blocks=int(arrays.retired.sum()),
    )
