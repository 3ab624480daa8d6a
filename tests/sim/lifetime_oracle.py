"""The scalar epoch engine: the oracle the batched engine is pinned to.

``repro.sim.batch`` is the only epoch stepping code in ``src/``; a
single device is its one-row case.  The per-device engine it replaced
lives here unchanged as the semantic reference: :class:`Partition`
keeps one numpy array per group field and :class:`BlockGroup` is a
write-through view onto one slot of them, :class:`LifetimeDevice` steps
named partitions day by day, and :func:`run_lifetime` is the scalar
daily loop with its write routing (:func:`_route_writes`) and fault
application (:func:`_apply_day_faults`).  It takes the same volume
arrays as production, walks them as :class:`DailySummary` rows
(:func:`daily_rows`), and returns the end state after the last day.

Two adapters connect it to production: :func:`oracle_build` gives a
production :class:`~repro.sim.baselines.DeviceBuild` a fresh scalar
device made from the same partition specs, and :func:`from_partitions`
stacks scalar partitions into one :class:`~repro.sim.batch.BatchPartition`
so end states compare field by field through ``export_state``.

Tests import this module as ``from lifetime_oracle import ...``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence

import numpy as np

from repro.faults.plan import FaultPlan, FaultSummary
from repro.flash.cell import CellMode
from repro.flash.error_model import cached_error_model
from repro.flash.reliability import endurance_pec
from repro.obs import get_observer
from repro.sim.baselines import DeviceBuild
from repro.sim.batch import QUALITY_SENSITIVITY, BatchPartition
from repro.sim.lifetime import (
    HOT_GROUP_FRACTION,
    MEDIA_DEMOTION_RATE,
    WL_WRITE_OVERHEAD,
    DaySample,
    LifetimeResult,
    PartitionSpec,
)

__all__ = [
    "GROUP_STATE_FIELDS",
    "DailySummary",
    "daily_rows",
    "BlockGroup",
    "Partition",
    "LifetimeDevice",
    "from_partitions",
    "oracle_build",
    "run_lifetime",
]

#: Per-group SoA fields shared by the scalar :class:`Partition` and the
#: batched fleet engine (:mod:`repro.sim.batch`), which stacks the same
#: arrays with a leading device axis.  ``mode_bits`` stands in for the
#: per-group :class:`CellMode`: the technology is fixed by the spec, only
#: the operating bits change under resuscitation.
GROUP_STATE_FIELDS = (
    "capacity_gb",
    "pec",
    "write_time",
    "live_gb",
    "retired",
    "refreshes",
    "mode_bits",
)


@dataclass(frozen=True, slots=True)
class DailySummary:
    """One day's aggregate host I/O volumes (GB): the scalar engine's row."""

    day: int
    new_media_gb: float
    new_other_gb: float
    overwrite_gb: float
    read_gb: float
    delete_gb: float


def daily_rows(volumes: Mapping[str, np.ndarray]) -> list[DailySummary]:
    """The rows of a ``daily_volume_arrays`` mapping, one per day."""
    names = [field.name for field in fields(DailySummary)]
    return [
        DailySummary(*row)
        for row in zip(*(np.asarray(volumes[name]).tolist() for name in names))
    ]


class BlockGroup:
    """A cohort of blocks wearing and aging together.

    View onto one slot of the owning partition's state arrays: reads and
    writes go straight through, so mutating a group (as tests do when
    staging wear) is equivalent to mutating the partition state.
    """

    __slots__ = ("_partition", "_index")

    def __init__(self, partition: "Partition", index: int) -> None:
        self._partition = partition
        self._index = index

    # -- array-backed fields ----------------------------------------------------

    @property
    def mode(self) -> CellMode:
        return self._partition._modes[self._index]

    @mode.setter
    def mode(self, value: CellMode) -> None:
        self._partition._set_mode(self._index, value)

    @property
    def capacity_gb(self) -> float:
        return float(self._partition._capacity[self._index])

    @capacity_gb.setter
    def capacity_gb(self, value: float) -> None:
        self._partition._capacity[self._index] = value

    @property
    def pec(self) -> float:
        return float(self._partition._pec[self._index])

    @pec.setter
    def pec(self, value: float) -> None:
        self._partition._pec[self._index] = value

    @property
    def mean_write_time(self) -> float:
        """Mean simulation time at which live data was written."""
        return float(self._partition._write_time[self._index])

    @mean_write_time.setter
    def mean_write_time(self, value: float) -> None:
        self._partition._write_time[self._index] = value

    @property
    def live_gb(self) -> float:
        return float(self._partition._live[self._index])

    @live_gb.setter
    def live_gb(self, value: float) -> None:
        self._partition._live[self._index] = value

    @property
    def retired(self) -> bool:
        return bool(self._partition._retired[self._index])

    @retired.setter
    def retired(self, value: bool) -> None:
        self._partition._retired[self._index] = value

    @property
    def refreshes(self) -> int:
        return int(self._partition._refreshes[self._index])

    @refreshes.setter
    def refreshes(self, value: int) -> None:
        self._partition._refreshes[self._index] = value

    # -- behaviour --------------------------------------------------------------

    def data_age(self, now: float) -> float:
        """Mean retention age of the group's live data."""
        if self.live_gb <= 0:
            return 0.0
        return max(0.0, now - self.mean_write_time)

    def absorb_write(self, gb: float, now: float, waf: float) -> None:
        """Account host+amplified writes into this group."""
        if self.retired or self.capacity_gb <= 0 or gb <= 0:
            return
        self._partition._absorb(np.array([self._index]), gb, now, waf)

    def rber(self, now: float, extra_age: float = 0.0) -> float:
        """Predicted RBER of the group's data (optionally looking ahead)."""
        model = cached_error_model(self.mode)
        return model.rber(pec=self.pec, years_since_write=self.data_age(now) + extra_age)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockGroup(mode={self.mode.name}, capacity_gb={self.capacity_gb:.3f}, "
            f"pec={self.pec:.1f}, live_gb={self.live_gb:.3f}, retired={self.retired})"
        )


class Partition:
    """Runtime state of one partition in the epoch model."""

    def __init__(self, spec: PartitionSpec) -> None:
        self.spec = spec
        n = spec.n_groups
        per_group = spec.capacity_gb / n
        self._capacity = np.full(n, per_group, dtype=float)
        self._pec = np.zeros(n, dtype=float)
        self._write_time = np.zeros(n, dtype=float)
        self._live = np.zeros(n, dtype=float)
        self._retired = np.zeros(n, dtype=bool)
        self._refreshes = np.zeros(n, dtype=np.int64)
        self._modes: list[CellMode] = [spec.mode] * n
        #: lazily maintained: the single CellMode shared by every group, or
        #: None once resuscitation (or a test) makes modes heterogeneous
        self._uniform_mode: CellMode | None = spec.mode
        self.groups = [BlockGroup(self, i) for i in range(n)]
        self._cold_cursor = 0
        self.refresh_writes_gb = 0.0
        self.retired_count = 0
        self.resuscitated_count = 0
        self.uncorrectable_events = 0.0

    # -- capacity ---------------------------------------------------------------

    def live_groups(self) -> list[BlockGroup]:
        """Groups still in service."""
        return [g for g, dead in zip(self.groups, self._retired) if not dead]

    def _live_indices(self) -> np.ndarray:
        return np.flatnonzero(~self._retired)

    def _holder_indices(self) -> np.ndarray:
        """Live groups currently holding data."""
        return np.flatnonzero(~self._retired & (self._live > 0))

    def capacity_gb(self) -> float:
        """Current usable capacity (shrinks with retirement, §4.3)."""
        return float(self._capacity[~self._retired].sum())

    def live_data_gb(self) -> float:
        """Live data currently resident."""
        return float(self._live[~self._retired].sum())

    def mean_pec(self) -> float:
        """Capacity-weighted mean PEC over live groups."""
        alive = ~self._retired
        total = self._capacity[alive].sum()
        if total == 0:
            return 0.0
        return float((self._pec[alive] * self._capacity[alive]).sum() / total)

    def max_pec(self) -> float:
        """Highest group PEC."""
        alive = ~self._retired
        if not alive.any():
            return 0.0
        return float(self._pec[alive].max())

    def wear_used_fraction(self) -> float:
        """Mean PEC over rated endurance of the operating mode."""
        return self.mean_pec() / endurance_pec(self.spec.mode)

    # -- SoA state exchange -----------------------------------------------------

    def export_group_state(self) -> dict[str, np.ndarray]:
        """Copy the per-group SoA state (:data:`GROUP_STATE_FIELDS`).

        The batched fleet engine stacks these arrays across devices; the
        pair with :meth:`import_group_state` round-trips a partition
        through the batch representation exactly.
        """
        return {
            "capacity_gb": self._capacity.copy(),
            "pec": self._pec.copy(),
            "write_time": self._write_time.copy(),
            "live_gb": self._live.copy(),
            "retired": self._retired.copy(),
            "refreshes": self._refreshes.copy(),
            "mode_bits": np.array(
                [m.operating_bits for m in self._modes], dtype=np.int64
            ),
        }

    def import_group_state(self, state: dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`export_group_state`."""
        n = self.spec.n_groups
        for name in GROUP_STATE_FIELDS:
            if np.shape(state[name]) != (n,):
                raise ValueError(
                    f"state field {name!r} has shape {np.shape(state[name])}, "
                    f"expected ({n},)"
                )
        self._capacity[:] = state["capacity_gb"]
        self._pec[:] = state["pec"]
        self._write_time[:] = state["write_time"]
        self._live[:] = state["live_gb"]
        self._retired[:] = state["retired"]
        self._refreshes[:] = state["refreshes"]
        technology = self.spec.mode.technology
        self._modes = [
            CellMode(technology, int(bits)) for bits in state["mode_bits"]
        ]
        first = self._modes[0]
        self._uniform_mode = (
            first if all(m == first for m in self._modes) else None
        )

    # -- writes --------------------------------------------------------------------

    def _set_mode(self, index: int, mode: CellMode) -> None:
        self._modes[index] = mode
        self._uniform_mode = mode if all(m == mode for m in self._modes) else None

    def _absorb(self, idx: np.ndarray, gb: float, now: float, waf: float) -> None:
        """Account ``gb`` of host+amplified writes into *each* group in ``idx``.

        ``idx`` must name non-retired groups with positive capacity (true
        for every internal caller; the guard in
        :meth:`BlockGroup.absorb_write` covers the view path).  ``gb`` is
        non-negative but may be 0.0: a subnormal write split across
        groups underflows to a zero share, so ``new_live`` is 0.0 on a
        group that was empty.  Such a group keeps its old write time
        instead of blending 0/0.
        """
        cap = self._capacity[idx]
        self._pec[idx] += gb * waf / cap
        new_live = np.minimum(cap, self._live[idx] + gb)
        # blend write times: new bytes are written "now"; weight 1 keeps
        # the old write time of a group that is still empty
        old_weight = np.divide(
            np.maximum(0.0, new_live - gb), new_live,
            out=np.ones_like(new_live), where=new_live > 0.0,
        )
        self._write_time[idx] = old_weight * self._write_time[idx] + (1.0 - old_weight) * now
        self._live[idx] = new_live

    def host_write(self, gb: float, now: float, churn: bool) -> None:
        """Apply host writes; churn concentrates on hot groups if WL off."""
        if gb <= 0:
            return
        live = self._live_indices()
        if live.size == 0:
            return
        waf = self.spec.waf
        if self.spec.wear_leveling:
            waf *= 1.0 + WL_WRITE_OVERHEAD
            self._absorb(live, gb / live.size, now, waf)
            return
        if churn:
            hot_count = max(1, int(live.size * HOT_GROUP_FRACTION))
            order = np.argsort(-self._pec[live], kind="stable")
            hot = live[order[:hot_count]]
            self._absorb(hot, gb / hot.size, now, waf)
        else:
            # append new data round-robin over the coldest groups
            target = live[self._cold_cursor % live.size]
            self._cold_cursor += 1
            self._absorb(np.array([target]), gb, now, waf)

    def host_delete(self, gb: float) -> None:
        """Remove live data (spread proportionally over groups)."""
        total = self.live_data_gb()
        if total <= 0 or gb <= 0:
            return
        fraction = min(1.0, gb / total)
        alive = ~self._retired
        self._live[alive] *= 1.0 - fraction

    # -- quality / reliability --------------------------------------------------------

    def _rber_many(
        self, idx: np.ndarray, now: float, extra_age: float = 0.0, from_data_age: bool = True
    ) -> np.ndarray:
        """RBER for each group in ``idx``, batched per operating mode."""
        if from_data_age:
            ages = np.where(
                self._live[idx] > 0, np.maximum(0.0, now - self._write_time[idx]), 0.0
            ) + extra_age
        else:
            ages = np.full(idx.size, extra_age)
        if self._uniform_mode is not None:
            return cached_error_model(self._uniform_mode).rber_many(self._pec[idx], ages)
        out = np.empty(idx.size, dtype=float)
        by_mode: dict[CellMode, list[int]] = {}
        for pos, i in enumerate(idx):
            by_mode.setdefault(self._modes[i], []).append(pos)
        for mode, positions in by_mode.items():
            model = cached_error_model(mode)
            out[positions] = model.rber_many(self._pec[idx[positions]], ages[positions])
        return out

    def worst_group_rber(self, now: float, horizon: float = 0.0) -> float:
        """Highest predicted RBER among live data-holding groups."""
        holders = self._holder_indices()
        if holders.size == 0:
            return 0.0
        return float(self._rber_many(holders, now, extra_age=horizon).max())

    def mean_quality(self, now: float) -> float:
        """Data-weighted quality proxy after the partition's protection."""
        holders = self._holder_indices()
        if holders.size == 0:
            return 1.0
        residual = self.spec.protection.residual_ber_many(self._rber_many(holders, now))
        quality = np.exp(-QUALITY_SENSITIVITY * residual)
        live = self._live[holders]
        return float((quality * live).sum() / live.sum())

    def expected_uncorrectable(self, now: float, page_bits: int = 4096 * 8) -> float:
        """Expected uncorrectable-page events across live data, this instant."""
        holders = self._holder_indices()
        if holders.size == 0:
            return 0.0
        pages = self._live[holders] * 1e9 * 8 / page_bits
        p_fail = self.spec.protection.page_failure_prob_many(
            self._rber_many(holders, now), page_bits
        )
        return float((pages * p_fail).sum())

    # -- fault injection ---------------------------------------------------------------

    def retire_group(self, index: int) -> bool:
        """Force-retire one group (infant-mortality fault injection).

        Unlike wear-driven retirement, the death is not predicted at the
        health horizon -- the group simply dies, taking its live data
        with it (the epoch model has no per-page rescue path).  Returns
        False when the group was already retired.
        """
        if self._retired[index]:
            return False
        self._retired[index] = True
        self._live[index] = 0.0
        self.retired_count += 1
        return True

    def power_loss_rewrite(self, index: int, now: float) -> float:
        """Recover a power-loss-interrupted program on one group.

        The interrupted write unit (modelled as up to 5% of the group's
        capacity, bounded by its live data) is torn and must be
        re-programmed, costing extra wear and refresh writes.  Returns
        the GB re-written (0.0 when the group holds nothing to tear).
        """
        if self._retired[index] or self._capacity[index] <= 0:
            return 0.0
        gb = min(float(self._live[index]), float(self._capacity[index]) * 0.05)
        if gb <= 0.0:
            return 0.0
        # data age is unchanged: the torn unit was freshly written anyway
        self._pec[index] += gb * self.spec.waf / self._capacity[index]
        self.refresh_writes_gb += gb
        return gb

    # -- maintenance --------------------------------------------------------------------

    def maintain(self, now: float, scrub_allowed: bool = True) -> None:
        """Health checks: scrub, retire, resuscitate (order matters:
        scrub first so a refresh can save a group from retirement).

        ``scrub_allowed=False`` defers the rescue pass (fault plans use
        it to model repair sources being unreachable) while the
        retire/resuscitate health check still runs -- degraded media must
        keep being managed even when it cannot be refreshed.
        """
        with get_observer().span("lifetime.maintain"):
            if self.spec.scrub_enabled and scrub_allowed:
                self._scrub(now)
            self._health_check(now)

    def _scrub(self, now: float) -> None:
        holders = self._holder_indices()
        if holders.size == 0:
            return
        look_ahead = self._rber_many(
            holders, now, extra_age=self.spec.health_horizon_years
        )
        residual = self.spec.protection.residual_ber_many(look_ahead)
        quality = np.exp(-QUALITY_SENSITIVITY * residual)
        refresh = holders[quality < self.spec.scrub_quality_floor]
        if refresh.size == 0:
            return
        # rewrite each group's live data fresh (costs one group PEC
        # worth of writes somewhere in the partition)
        live = self._live[refresh]
        self.refresh_writes_gb += float(live.sum())
        self._pec[refresh] += live * self.spec.waf / self._capacity[refresh]
        self._write_time[refresh] = now
        self._refreshes[refresh] += 1
        get_observer().event(
            "scrub_refresh", t=now, partition=self.spec.name,
            groups=int(refresh.size), gb=float(live.sum()),
        )

    def _health_check(self, now: float) -> None:
        live = self._live_indices()
        if live.size == 0:
            return
        predicted = self._rber_many(
            live, now, extra_age=self.spec.health_horizon_years, from_data_age=False
        )
        obs = get_observer()
        for i in live[predicted > self.spec.max_rber]:
            mode = self._modes[i]
            resuscitated = False
            for bits in self.spec.resuscitation_bits:
                if bits >= mode.operating_bits:
                    continue
                candidate = CellMode(mode.technology, bits)
                cand_rber = cached_error_model(candidate).rber(
                    pec=self._pec[i], years_since_write=self.spec.health_horizon_years
                )
                if cand_rber <= self.spec.max_rber:
                    # density drop: capacity shrinks proportionally; live
                    # data is re-hosted (counted as refresh writes)
                    ratio = bits / mode.operating_bits
                    self.refresh_writes_gb += float(self._live[i])
                    self._capacity[i] *= ratio
                    self._live[i] = min(self._live[i], self._capacity[i])
                    self._set_mode(int(i), candidate)
                    self._write_time[i] = now
                    self.resuscitated_count += 1
                    resuscitated = True
                    obs.event(
                        "block_resuscitated", t=now, partition=self.spec.name,
                        group=int(i), bits=int(bits),
                    )
                    break
            if not resuscitated:
                self._retired[i] = True
                self._live[i] = 0.0
                self.retired_count += 1
                obs.event(
                    "block_retired", t=now, partition=self.spec.name,
                    group=int(i), reason="wear",
                )


class LifetimeDevice:
    """A device of one or more partitions stepped day by day."""

    def __init__(self, partitions: list[PartitionSpec]) -> None:
        if not partitions:
            raise ValueError("at least one partition required")
        self.partitions = {spec.name: Partition(spec) for spec in partitions}
        self.now_years = 0.0

    def partition(self, name: str) -> Partition:
        """Access a partition by name."""
        return self.partitions[name]

    def capacity_gb(self) -> float:
        """Total current usable capacity."""
        return sum(p.capacity_gb() for p in self.partitions.values())

    def step_day(
        self,
        writes: dict[str, tuple[float, float]],
        maintain: bool = True,
        scrub_allowed: bool = True,
    ) -> None:
        """Advance one day.

        Parameters
        ----------
        writes:
            partition name -> (new_data_gb, churn_gb) for the day.
        maintain:
            Run scrub/health maintenance after applying writes.
        scrub_allowed:
            Passed through to :meth:`Partition.maintain`; False defers
            the day's scrub pass (repair source unreachable).
        """
        dt = 1.0 / 365.0
        self.now_years += dt
        for name, (new_gb, churn_gb) in writes.items():
            partition = self.partitions[name]
            partition.host_write(new_gb, self.now_years, churn=False)
            partition.host_write(churn_gb, self.now_years, churn=True)
        if maintain:
            for partition in self.partitions.values():
                partition.maintain(self.now_years, scrub_allowed=scrub_allowed)


def from_partitions(partitions: Sequence[Partition]) -> BatchPartition:
    """Stack scalar partitions (specs must match except ``waf``)."""
    if not partitions:
        raise ValueError("at least one partition required")
    base = partitions[0].spec
    canonical = replace(base, waf=0.0)
    for p in partitions[1:]:
        if replace(p.spec, waf=0.0) != canonical:
            raise ValueError(
                "batched partitions must share their spec (only waf may vary)"
            )
    self = BatchPartition(base, len(partitions))
    self._waf = np.array([p.spec.waf for p in partitions], dtype=float)
    states = [p.export_group_state() for p in partitions]
    self._capacity = np.stack([s["capacity_gb"] for s in states])
    self._pec = np.stack([s["pec"] for s in states])
    self._write_time = np.stack([s["write_time"] for s in states])
    self._live = np.stack([s["live_gb"] for s in states])
    self._retired = np.stack([s["retired"] for s in states])
    self._refreshes = np.stack(
        [s["refreshes"] for s in states]
    ).astype(np.int32)
    mode_bits = np.stack([s["mode_bits"] for s in states])
    self._mode_idx = self._mode_idx_from_bits(mode_bits)
    self._cold_cursor = np.array(
        [p._cold_cursor for p in partitions], dtype=np.int64
    )
    self.refresh_writes_gb = np.array(
        [p.refresh_writes_gb for p in partitions], dtype=float
    )
    self.retired_count = np.array(
        [p.retired_count for p in partitions], dtype=np.int64
    )
    self.resuscitated_count = np.array(
        [p.resuscitated_count for p in partitions], dtype=np.int64
    )
    return self


def oracle_build(build: DeviceBuild) -> DeviceBuild:
    """``build`` with a fresh scalar device made from its partition specs.

    Pass a build that has not run yet: the scalar device starts fresh
    whatever state the production device holds.
    """
    specs = [partition.spec for partition in build.device.partitions.values()]
    return replace(build, device=LifetimeDevice(specs))


def _route_writes(
    build: DeviceBuild, summary: DailySummary
) -> dict[str, tuple[float, float]]:
    """Split a day's volumes across the build's partitions."""
    if "main" in build.device.partitions:
        new = summary.new_media_gb + summary.new_other_gb
        return {"main": (new, summary.overwrite_gb)}
    demoted = summary.new_media_gb * MEDIA_DEMOTION_RATE
    kept = summary.new_media_gb - demoted
    # demoted media writes SYS first (landing zone), then SPARE
    sys_new = summary.new_other_gb + kept + demoted
    return {
        "sys": (sys_new, summary.overwrite_gb),
        "spare": (demoted, 0.0),
    }


def _apply_day_faults(
    device, plan: FaultPlan, summary_counters: FaultSummary, position: int
) -> None:
    """Apply one day's scheduled faults to the epoch device."""
    obs = get_observer()
    now = device.now_years
    for target, unit in plan.infant_deaths(position):
        partition = device.partitions.get(target)
        if partition is not None and unit < partition.spec.n_groups:
            if partition.retire_group(unit):
                summary_counters.infant_deaths += 1
                obs.event("block_retired", t=now, partition=target, group=int(unit),
                          reason="infant_mortality")
    for target, unit, attempts_needed in plan.transient_reads(position):
        if target not in device.partitions:
            continue
        summary_counters.transient_reads += 1
        retries = min(attempts_needed - 1, plan.config.max_read_retries)
        summary_counters.read_retry_attempts += retries
        if attempts_needed - 1 <= plan.config.max_read_retries:
            summary_counters.reads_recovered += 1
            obs.event("transient_read", t=now, partition=target, recovered=True,
                      retries=int(retries))
        else:
            # retry budget exhausted: graceful degradation, count and go on
            summary_counters.reads_unrecovered += 1
            obs.event("transient_read", t=now, partition=target, recovered=False,
                      retries=int(retries))
    for target, unit in plan.torn_programs(position):
        partition = device.partitions.get(target)
        if partition is not None and unit < partition.spec.n_groups:
            rewritten = partition.power_loss_rewrite(unit, device.now_years)
            summary_counters.torn_programs += 1
            summary_counters.torn_rewrite_gb += rewritten
            obs.event("torn_program", t=now, partition=target, group=int(unit),
                      rewrite_gb=float(rewritten))


def run_lifetime(
    build: DeviceBuild,
    volumes: Mapping[str, np.ndarray],
    fault_plan: FaultPlan | None = None,
) -> LifetimeResult:
    """Run a device build through daily volumes, one row at a time;
    return its end state, sampled once after the last day."""
    summaries = daily_rows(volumes)
    if not summaries:
        raise ValueError("a lifetime run needs at least one day")
    faults = FaultSummary() if fault_plan is not None else None
    device = build.device
    spare = device.partitions.get("spare")
    sys_part = device.partitions.get("sys") or device.partitions.get("main")
    assert sys_part is not None
    obs = get_observer()
    with obs.span("engine.run"):
        for position, summary in enumerate(summaries):
            writes = _route_writes(build, summary)
            obs.count("engine.days")
            obs.observe(
                "engine.day_write_gb",
                sum(new + churn for new, churn in writes.values()),
            )
            scrub_allowed = True
            if fault_plan is not None:
                assert faults is not None
                if fault_plan.in_cloud_outage(position):
                    faults.cloud_outage_days += 1
                    scrub_allowed = False
                    faults.scrubs_deferred += sum(
                        1 for p in device.partitions.values() if p.spec.scrub_enabled
                    )
            device.step_day(writes, scrub_allowed=scrub_allowed)
            if fault_plan is not None:
                if not scrub_allowed:
                    obs.event("cloud_outage_day", t=device.now_years, day=summary.day)
                _apply_day_faults(device, fault_plan, faults, position)
            # deletions keep the working set stationary: the day's delete
            # volume is apportioned across pressured partitions by live-data
            # share, so multi-partition builds delete the same total volume
            # as single-partition ones
            pressured = []
            for partition in device.partitions.values():
                utilization = (
                    partition.live_data_gb() / partition.capacity_gb()
                    if partition.capacity_gb() > 0
                    else 1.0
                )
                if utilization > 0.85:
                    pressured.append(partition)
            live_total = sum(p.live_data_gb() for p in pressured)
            if live_total > 0:
                for partition in pressured:
                    partition.host_delete(
                        summary.delete_gb * partition.live_data_gb() / live_total
                    )
        final = DaySample(
            day=summaries[-1].day,
            years=device.now_years,
            capacity_gb=device.capacity_gb(),
            sys_wear_fraction=sys_part.wear_used_fraction(),
            spare_wear_fraction=(
                spare.wear_used_fraction() if spare else sys_part.wear_used_fraction()
            ),
            spare_quality=(
                spare.mean_quality(device.now_years)
                if spare
                else sys_part.mean_quality(device.now_years)
            ),
            sys_uncorrectable=sys_part.expected_uncorrectable(device.now_years),
            retired_groups=sum(p.retired_count for p in device.partitions.values()),
            resuscitated_groups=sum(
                p.resuscitated_count for p in device.partitions.values()
            ),
        )
    return LifetimeResult(
        build_name=build.name,
        capacity_gb=build.capacity_gb,
        intensity_kg_per_gb=build.intensity_kg_per_gb,
        final=final,
        faults=faults,
    )
