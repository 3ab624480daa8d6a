"""The epoch engine: device populations stepped one simulated day at a time.

Every epoch-model lifetime result comes from this module.  The
population experiments (E14 fleet replacement, E16 200-user wear, the
A6 sensitivity grids, every fleet shard) step N devices at once, and a
single device (:func:`repro.sim.engine.run_lifetime`: E3, E11, the
A1/A2/A9 ablations) is the one-row case of the same code.  Each
partition keeps one array per block-group field with a leading device
axis, shape ``(n_devices, lanes)``, and each simulated day is a
handful of array operations over that state: write routing, wear
accrual, scrub/refresh, the retire/resuscitate ladder, and delete
apportionment.

A partition has one lane per block group, except that a wear-leveled
one starts *collapsed*: wear leveling gives every group the same share,
so one lane per device stands for all of them.  It widens to one lane
per group, in place, the first time a group can diverge: a group fails
the health check (it retires or resuscitates), a scrub pass runs, a
fault hits one group, :meth:`~BatchPartition.import_state` installs
state, or a stack joins it with a wide row.  Only elementwise IEEE
arithmetic (+, -, *, /, min, max, comparisons) runs on the collapsed
lanes, so each lane holds the bits it would hold wide; every row sum
and every RBER or ECC evaluation runs on the lanes repeated out to the
full ``(n_devices, n_groups)`` shape, so numpy adds and rounds exactly
as it would over wide state.  Never shortcut a row sum as ``n_groups``
times a lane: the two differ in the last bit.

A partition owns its state arrays, and each day updates them in place:
ufuncs write through ``out=``, with ``where=`` when only some lanes
change, in the oracle's operation and operand order.  So no state array
is ever shared -- :meth:`BatchPartition.stack`,
:meth:`~BatchPartition.scatter_to`, :meth:`~BatchPartition.export_state`
and :meth:`~BatchPartition.import_state` all copy, and widening installs
new arrays.  The daily health check evaluates RBER only once a live
group's PEC reaches ``_safe_pec``, the PEC at which its mode's RBER
after the health horizon climbs to half of ``max_rber`` (the lowest
over the partition's mode ladder).  Below it no group can fail, so
skipping the evaluation changes nothing; a fleet chunk's devices stay
far below it, and the chunk's one RBER pass is its end state's.

The interface is volume arrays in, one end state out.  A device build
owns a one-row :class:`BatchLifetimeDevice` made from its
:class:`~repro.sim.lifetime.PartitionSpec` list.
:func:`run_lifetime_batch` takes a :class:`SummaryBatch` (the builds'
:meth:`~repro.workloads.mobile.MobileWorkload.daily_volume_arrays`,
stacked), stacks the builds' rows
(:meth:`BatchLifetimeDevice.from_devices`), steps the stack, and
returns one :class:`BatchEndState`: every device's observables after
the last day, one array per field in device order.  It hands each build
its final row back (:meth:`BatchPartition.scatter_to`).  No series is
recorded: every lifetime claim reads the end state.  A fleet chunk's
columns are the record's arrays as they stand;
:func:`repro.sim.engine.run_lifetime` turns the one row of a
single-device run into a :class:`~repro.sim.lifetime.LifetimeResult`.

Each day's volumes map onto the partitions as follows:

* single-partition baselines take everything on ``main``;
* SOS routes media writes to SPARE (after the classifier demotes
  :data:`~repro.sim.lifetime.MEDIA_DEMOTION_RATE` of them) and
  everything else to SYS.  The demotion detour -- new data lands on
  SYS first, the daemon moves media later (§4.4) -- is modelled as all
  media writing *once* to SYS and the demoted share *once* more to
  SPARE.

Deletion volume keeps utilization stationary.

A precomputed :class:`~repro.faults.plan.FaultPlan` per device can be
threaded through: infant-mortality deaths retire block groups,
transient reads exercise the bounded-retry accounting, torn programs
cost recovery rewrites, and cloud-outage windows defer the scrub pass
(the epoch model's stand-in for the §4.3 repair path).  Fault days are
indexed by *position* in the day sequence, not its ``day`` labels, so
sliced or 1-indexed volumes replay the same schedule.  With no plan
(or an all-zero-rate plan) results are bit-identical to the fault-free
run.

Equivalence contract with the scalar per-device engine this replaced,
kept as the test oracle in ``tests/sim/lifetime_oracle.py`` (pinned by
tier-1 tests):

* integer outputs (retired/resuscitated/refresh counts, fault counters,
  the final day, integer event fields) are **exactly** equal;
* float outputs match within 1e-9 relative.  Elementwise state updates
  replicate the oracle's operation order, so fleets whose groups all
  stay alive and data-holding (the wear-leveled baselines without
  faults) are bit-identical end to end; once groups retire, masked
  reductions group additions differently than the oracle's compacted
  reductions and agreement is ~1e-12 relative.

Divisions run only on the lanes whose result is kept
(``np.divide(..., where=...)``), so no lane computes 0/0 and numeric
warnings stay errors.

Devices in one batch must share their build topology (same partitions,
same specs); only the write-amplification factor ``waf`` may vary per
device, which is what the A6 sensitivity grid sweeps.  Heterogeneous
populations batch per homogeneous sub-population (see
``repro.fleet.points``).

Observability: one batched pass charges N logical span calls
(``obs.span(name, calls=N)``) and bumps shared counters by N, so
metric snapshots from a batched run merge/compare 1:1 against N
one-device runs (modulo wall times and float histogram totals).  Trace
events carry a ``device`` index field (``0`` for a single device) and
are grouped by day rather than by device.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.faults.plan import FaultPlan, FaultSummary
from repro.flash.cell import CellMode
from repro.flash.chip import DAYS_PER_YEAR
from repro.flash.error_model import ErrorModel, cached_error_model
from repro.flash.reliability import endurance_pec
from repro.obs import get_observer

from .lifetime import (
    HOT_GROUP_FRACTION,
    MEDIA_DEMOTION_RATE,
    WL_WRITE_OVERHEAD,
    PartitionSpec,
)

if TYPE_CHECKING:
    from .baselines import DeviceBuild

__all__ = [
    "BatchEndState",
    "BatchLifetimeDevice",
    "BatchPartition",
    "SummaryBatch",
    "run_lifetime_batch",
]


@dataclass(slots=True)
class SummaryBatch:
    """Per-device daily volumes as ``(n_devices, n_days)`` arrays: the
    engine's one input, built by :meth:`from_volume_arrays`.

    All devices must share the same ``day`` sequence (they are stepped in
    lockstep).  ``read_gb`` is omitted: the epoch engine never consumes
    it.
    """

    day: np.ndarray  # (n_days,)
    new_media_gb: np.ndarray  # (n_devices, n_days)
    new_other_gb: np.ndarray
    overwrite_gb: np.ndarray
    delete_gb: np.ndarray

    @property
    def n_devices(self) -> int:
        return int(self.new_media_gb.shape[0])

    @property
    def n_days(self) -> int:
        return int(self.day.shape[0])

    @classmethod
    def from_volume_arrays(
        cls, per_device: Sequence[Mapping[str, np.ndarray]]
    ) -> "SummaryBatch":
        """Stack :meth:`MobileWorkload.daily_volume_arrays` outputs.

        Every device's day sequence is checked against the first in one
        comparison, and each field is stacked in one call.
        """
        if not per_device:
            raise ValueError("at least one device's volumes required")
        day = np.asarray(per_device[0]["day"], dtype=np.int64)
        try:
            days = np.array([v["day"] for v in per_device])
        except ValueError:  # sequences of different lengths
            days = None
        if days is None or days.shape != (len(per_device), day.size) or not (
            days == day
        ).all():
            raise ValueError("all devices must share the same day sequence")
        def field(name: str) -> np.ndarray:
            return np.array([v[name] for v in per_device], dtype=float)
        return cls(
            day=day,
            new_media_gb=field("new_media_gb"),
            new_other_gb=field("new_other_gb"),
            overwrite_gb=field("overwrite_gb"),
            delete_gb=field("delete_gb"),
        )


@dataclass(frozen=True, slots=True)
class BatchEndState:
    """Every device's state after the last day: what
    :func:`run_lifetime_batch` returns.

    ``day`` (the last day's label) and ``years`` are shared by the whole
    batch; every other field holds one entry per device, in build order
    -- float64 observables, int64 group counters, and each device's
    fault counters (None for a device run without a fault plan).  The
    field names are those of :class:`~repro.sim.lifetime.DaySample`.
    """

    day: int
    years: float
    capacity_gb: np.ndarray
    sys_wear_fraction: np.ndarray
    spare_wear_fraction: np.ndarray
    spare_quality: np.ndarray
    sys_uncorrectable: np.ndarray
    retired_groups: np.ndarray
    resuscitated_groups: np.ndarray
    faults: list[FaultSummary | None]


#: a :class:`BatchPartition`'s per-group fields, shape ``(n_devices,
#: lanes)``: one lane per group, or one per device while a wear-leveled
#: partition's groups are equal
_GROUP_STATE = (
    "_capacity",
    "_pec",
    "_write_time",
    "_live",
    "_retired",
    "_refreshes",
    "_mode_idx",
)

#: per-device state of a :class:`BatchPartition`: every attribute's first
#: axis is the device axis, so stacking rows is one concatenate and
#: scattering them back one slice per attribute
_ROW_STATE = _GROUP_STATE + (
    "_cold_cursor",
    "refresh_writes_gb",
    "retired_count",
    "resuscitated_count",
    "_waf",
)


@lru_cache(maxsize=64)
def _mode_ladder(
    mode: CellMode, resuscitation_bits: tuple[int, ...]
) -> tuple[tuple[CellMode, ...], np.ndarray]:
    """A partition's mode ladder -- ``mode``, then each resuscitation
    density below it -- and the ladder's operating bits (read-only),
    shared by every partition of that spec."""
    ladder = [mode]
    for bits in resuscitation_bits:
        if bits >= mode.operating_bits:
            continue  # never a density drop, for any group
        if any(m.operating_bits == bits for m in ladder):
            continue
        ladder.append(CellMode(mode.technology, bits))
    ladder_bits = np.array([m.operating_bits for m in ladder], dtype=np.int64)
    ladder_bits.flags.writeable = False
    return tuple(ladder), ladder_bits


@lru_cache(maxsize=256)
def _safe_pec(model: ErrorModel, max_rber: float, horizon_years: float) -> float:
    """A PEC below which no group of ``model``'s mode fails the health check.

    Below it, the RBER ``horizon_years`` after a write is under half of
    ``max_rber`` (the model is monotone in PEC), and ``rber_many``
    rounds within ~1e-15 of the scalar ``rber`` that
    :meth:`~repro.flash.error_model.ErrorModel.pec_for_rber` inverts, so
    the full evaluation would retire and resuscitate nothing.  A target
    out of reach below 100x rated endurance gives that PEC (the curve
    may still reach it above); 0.0 (never skip) when the target is met
    at zero wear or the spec is out of the model's domain.  Keyed by
    the model instance: :func:`cached_error_model` makes a new one when
    an endurance table override changes its values.
    """
    if not (max_rber > 0.0 and horizon_years >= 0.0):
        return 0.0
    pec = model.pec_for_rber(max_rber / 2.0, horizon_years)
    return pec if math.isfinite(pec) else 100.0 * model.rated_pec


@lru_cache(maxsize=256)
def _lane_sum(lane: float, n_groups: int) -> float:
    """``n_groups`` lanes of ``lane`` summed as numpy sums a wide row
    (``n_groups * lane`` rounds differently): the capacity of every
    device of a collapsed partition."""
    return float(np.full((1, n_groups), lane).sum(axis=1)[0])


class BatchPartition:
    """One partition of N devices, stepped together.

    Block-group state is one array per field, shape ``(n_devices,
    lanes)``; per-group operating modes are tracked as indexes into a
    fixed *mode ladder* (``[spec.mode] + resuscitation candidates``), so
    heterogeneous post-resuscitation populations stay vectorizable.
    A single device's partition is the ``n_devices=1`` case.

    A wear-leveled partition starts collapsed, one lane per device (see
    the module docstring).  While collapsed no group has retired and
    every group runs ``spec.mode`` at ``spec.capacity_gb / n_groups``;
    :meth:`_widen` gives each group its own lane before one diverges,
    and row sums and RBER see the lanes repeated (:meth:`_lanes`).
    """

    def __init__(self, spec: PartitionSpec, n_devices: int) -> None:
        if n_devices <= 0:
            raise ValueError("n_devices must be positive")
        self.spec = spec
        self.n_devices = n_devices
        per_group = spec.capacity_gb / spec.n_groups
        shape = (n_devices, 1 if spec.wear_leveling else spec.n_groups)
        # float state stays float64 (the oracle-equivalence contract is
        # bit-level); the integer lanes are tightened -- refresh counts
        # fit int32 and mode indexes fit int8 -- so a shard's per-lane
        # footprint is dominated by the five float64 arrays
        self._capacity = np.full(shape, per_group, dtype=float)
        self._pec = np.zeros(shape, dtype=float)
        self._write_time = np.zeros(shape, dtype=float)
        self._live = np.zeros(shape, dtype=float)
        self._retired = np.zeros(shape, dtype=bool)
        self._refreshes = np.zeros(shape, dtype=np.int32)
        self._mode_ladder, self._ladder_bits = _mode_ladder(
            spec.mode, spec.resuscitation_bits
        )
        self._mode_idx = np.zeros(shape, dtype=np.int8)
        #: False while every group still runs spec.mode (fast RBER path)
        self._heterogeneous = False
        self._cold_cursor = np.zeros(n_devices, dtype=np.int64)
        self.refresh_writes_gb = np.zeros(n_devices, dtype=float)
        self.retired_count = np.zeros(n_devices, dtype=np.int64)
        self.resuscitated_count = np.zeros(n_devices, dtype=np.int64)
        self._waf = np.full(n_devices, spec.waf, dtype=float)

    # -- lanes --------------------------------------------------------------------

    @property
    def _collapsed(self) -> bool:
        """True while one lane per device stands for all its groups."""
        return self._pec.shape[1] != self.spec.n_groups

    def _lanes(self, values: np.ndarray) -> np.ndarray:
        """``values`` (one of the state's shape) with one lane per group:
        itself on a wide partition, a new array of repeated lanes on a
        collapsed one."""
        g = self.spec.n_groups
        return values if values.shape[1] == g else values.repeat(g, axis=1)

    def _widen(self) -> None:
        """Give every group its own lane before one can diverge.

        New arrays replace the columns, so no array handed out before
        is shared.
        """
        if self._collapsed:
            for name in _GROUP_STATE:
                setattr(self, name, self._lanes(getattr(self, name)))

    # -- stacking -----------------------------------------------------------------

    @classmethod
    def stack(cls, parts: Sequence["BatchPartition"]) -> "BatchPartition":
        """Concatenate partitions' device rows (specs must match except ``waf``)."""
        if not parts:
            raise ValueError("at least one partition required")
        base = parts[0].spec
        canonical = replace(base, waf=0.0)
        for p in parts[1:]:
            # builds of one technology and capacity share their spec object
            if p.spec is base:
                continue
            if p.spec != base and replace(p.spec, waf=0.0) != canonical:
                raise ValueError(
                    "batched partitions must share their spec (only waf may vary)"
                )
        out = copy.copy(parts[0])
        # collapsed rows stay collapsed; beside a wide row, every row
        # joins with its lanes repeated
        mixed = len({p._pec.shape[1] for p in parts}) > 1
        for name in _ROW_STATE:
            rows = [getattr(p, name) for p in parts]
            if mixed and name in _GROUP_STATE:
                rows = [p._lanes(row) for p, row in zip(parts, rows)]
            setattr(out, name, np.concatenate(rows))
        out.n_devices = int(out._pec.shape[0])
        out._heterogeneous = any(p._heterogeneous for p in parts)
        return out

    def _mode_idx_from_bits(self, mode_bits: np.ndarray) -> np.ndarray:
        """Map per-group operating bits onto mode-ladder indexes."""
        lut = np.full(int(self._ladder_bits.max()) + 1, -1, dtype=np.int8)
        lut[self._ladder_bits] = np.arange(
            len(self._mode_ladder), dtype=np.int8
        )
        if (
            mode_bits.min() < 0
            or mode_bits.max() >= lut.size
            or (lut[mode_bits] < 0).any()
        ):
            raise ValueError(
                "partition group mode outside the spec's resuscitation ladder"
            )
        return lut[mode_bits]

    # -- shard-local state export -------------------------------------------------

    def export_state(self) -> dict[str, np.ndarray]:
        """Whole-shard state as one dict of stacked arrays.

        Every array keeps its leading device axis, so a shard
        checkpoints (and a fleet coordinator persists) N devices in one
        O(arrays) copy.  Round-trips exactly through :meth:`import_state`,
        which is also how tests stage state on a one-row partition.  The
        per-group fields are ``(n_devices, n_groups)`` however the
        partition holds them.
        """
        # a collapsed partition's repeated lanes are new arrays already
        lanes = self._lanes if self._collapsed else np.copy
        return {
            "capacity_gb": lanes(self._capacity),
            "pec": lanes(self._pec),
            "write_time": lanes(self._write_time),
            "live_gb": lanes(self._live),
            "retired": lanes(self._retired),
            "refreshes": lanes(self._refreshes),
            "mode_bits": self._ladder_bits[self._lanes(self._mode_idx)],
            "cold_cursor": self._cold_cursor.copy(),
            "refresh_writes_gb": self.refresh_writes_gb.copy(),
            "retired_count": self.retired_count.copy(),
            "resuscitated_count": self.resuscitated_count.copy(),
            "waf": self._waf.copy(),
        }

    def import_state(self, state: dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`export_state` (shapes must match the shard);
        the partition holds the state wide."""
        shape = (self.n_devices, self.spec.n_groups)
        for name in ("capacity_gb", "pec", "write_time", "live_gb",
                     "retired", "refreshes", "mode_bits"):
            if np.shape(state[name]) != shape:
                raise ValueError(
                    f"state field {name!r} has shape {np.shape(state[name])}, "
                    f"expected {shape}"
                )
        for name in ("cold_cursor", "refresh_writes_gb", "retired_count",
                     "resuscitated_count", "waf"):
            if np.shape(state[name]) != (self.n_devices,):
                raise ValueError(
                    f"state field {name!r} has shape {np.shape(state[name])}, "
                    f"expected ({self.n_devices},)"
                )
        self._capacity = np.asarray(state["capacity_gb"], dtype=float).copy()
        self._pec = np.asarray(state["pec"], dtype=float).copy()
        self._write_time = np.asarray(state["write_time"], dtype=float).copy()
        self._live = np.asarray(state["live_gb"], dtype=float).copy()
        self._retired = np.asarray(state["retired"], dtype=bool).copy()
        self._refreshes = np.asarray(state["refreshes"], dtype=np.int32).copy()
        self._mode_idx = self._mode_idx_from_bits(
            np.asarray(state["mode_bits"], dtype=np.int64)
        )
        self._heterogeneous = bool((self._mode_idx != 0).any())
        self._cold_cursor = np.asarray(
            state["cold_cursor"], dtype=np.int64
        ).copy()
        self.refresh_writes_gb = np.asarray(
            state["refresh_writes_gb"], dtype=float
        ).copy()
        self.retired_count = np.asarray(
            state["retired_count"], dtype=np.int64
        ).copy()
        self.resuscitated_count = np.asarray(
            state["resuscitated_count"], dtype=np.int64
        ).copy()
        self._waf = np.asarray(state["waf"], dtype=float).copy()

    def scatter_to(self, partitions: Sequence["BatchPartition"]) -> None:
        """Hand each partition its rows back, in :meth:`stack` order."""
        bounds = np.cumsum([0] + [p.n_devices for p in partitions]).tolist()
        if bounds[-1] != self.n_devices:
            raise ValueError("partition rows must add up to n_devices")
        state = {name: getattr(self, name).copy() for name in _ROW_STATE}
        heterogeneous = (self._mode_idx != 0).any(axis=1).tolist()
        for part, start, stop in zip(partitions, bounds[:-1], bounds[1:]):
            for name, array in state.items():
                setattr(part, name, array[start:stop])
            part._heterogeneous = any(heterogeneous[start:stop])

    # -- per-device aggregates --------------------------------------------------

    def _alive_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-device sum of ``values`` over live groups.

        A retired lane adds 0.0 in its place, so the row sums add the
        same terms in the same order however many groups have retired.
        """
        if self._retired.any():
            values = np.where(self._retired, 0.0, values)
        return self._lanes(values).sum(axis=1)

    def capacity_gb(self) -> np.ndarray:
        """Usable capacity per device, ``(n_devices,)``."""
        if self._collapsed:
            # no group has retired or resuscitated: every lane of every
            # device holds the same capacity
            total = _lane_sum(float(self._capacity[0, 0]), self.spec.n_groups)
            return np.full(self.n_devices, total)
        return self._alive_sum(self._capacity)

    def live_data_gb(self) -> np.ndarray:
        """Live data per device, ``(n_devices,)``."""
        return self._alive_sum(self._live)

    def mean_pec(self) -> np.ndarray:
        """Capacity-weighted mean PEC over live groups, per device."""
        alive = ~self._retired
        cap = self._lanes(np.where(alive, self._capacity, 0.0))
        total = cap.sum(axis=1)
        weighted = (np.where(alive, self._pec, 0.0) * cap).sum(axis=1)
        return np.divide(
            weighted, total, out=np.zeros_like(total), where=total != 0.0
        )

    def wear_used_fraction(self) -> np.ndarray:
        """Mean PEC over rated endurance of the operating mode."""
        return self.mean_pec() / endurance_pec(self.spec.mode)

    def mean_quality(self, now: float) -> np.ndarray:
        """Data-weighted post-protection quality proxy, per device."""
        holders = ~self._retired & (self._live > 0.0)
        residual = self.spec.protection.residual_ber_many(self._rber(now))
        quality = np.exp(-self.spec.quality_sensitivity * residual)
        live = self._lanes(np.where(holders, self._live, 0.0))
        total = live.sum(axis=1)
        weighted = (quality * live).sum(axis=1)
        return np.divide(
            weighted, total, out=np.ones_like(total), where=total > 0.0
        )

    def expected_uncorrectable(
        self, now: float, page_bits: int = 4096 * 8
    ) -> np.ndarray:
        """Expected uncorrectable-page events across live data, per device."""
        holders = ~self._retired & (self._live > 0.0)
        pages = np.where(holders, self._live, 0.0) * 1e9 * 8 / page_bits
        p_fail = self.spec.protection.page_failure_prob_many(
            self._rber(now), page_bits
        )
        return (pages * p_fail).sum(axis=1)

    # -- writes -----------------------------------------------------------------

    def _absorb(
        self, mask: np.ndarray, gb: np.ndarray, now: float, waf: np.ndarray
    ) -> None:
        """Account per-group host+amplified writes where ``mask``, in place.

        ``gb`` is one ``(n_devices, 1)`` column, each device's write per
        group; lanes outside ``mask`` keep their state.  A lane inside
        ``mask`` whose group is still empty -- a subnormal write's share
        underflowed to 0.0 -- keeps its write time rather than blending
        0/0.
        """
        cap = self._capacity
        # where=True when every lane writes: numpy's unmasked loops
        lanes = True if mask.all() else mask
        inc = np.divide(gb * waf, cap, out=np.empty_like(cap), where=lanes)
        # one row of gb per device, spelled out: full-size operands let
        # numpy run each operation as one flat loop
        gb = np.repeat(gb, cap.shape[1], axis=1)
        new_live = np.add(self._live, gb, out=np.empty_like(cap), where=lanes)
        np.minimum(cap, new_live, out=new_live, where=lanes)
        # blend write times: new bytes are written "now", weighted
        # old_weight * write_time + (1 - old_weight) * now
        blend = np.greater(new_live, 0.0, out=np.zeros_like(mask), where=lanes)
        blend = True if blend.all() else blend
        old_weight = np.subtract(new_live, gb, out=gb, where=blend)
        np.maximum(0.0, old_weight, out=old_weight, where=blend)
        np.divide(old_weight, new_live, out=old_weight, where=blend)
        kept = np.multiply(old_weight, self._write_time, out=np.empty_like(cap),
                           where=blend)
        fresh = np.subtract(1.0, old_weight, out=old_weight, where=blend)
        np.multiply(fresh, now, out=fresh, where=blend)
        np.add(kept, fresh, out=self._write_time, where=blend)
        np.add(self._pec, inc, out=self._pec, where=lanes)
        np.copyto(self._live, new_live, where=lanes)

    def host_write(self, gb: np.ndarray, now: float, churn: bool) -> None:
        """Apply per-device host writes; churn concentrates on hot groups if WL off."""
        gb = np.asarray(gb, dtype=float)
        alive = ~self._retired
        live_count = (
            alive.sum(axis=1) if self._retired.any()
            else np.full(self.n_devices, self.spec.n_groups)
        )
        active = (gb > 0.0) & (live_count > 0)
        if not active.any():
            return
        waf = self._waf[:, None]
        denom = np.maximum(live_count, 1)
        if self.spec.wear_leveling:
            waf = waf * (1.0 + WL_WRITE_OVERHEAD)
            share = (gb / denom)[:, None]
            mask = alive if active.all() else alive & active[:, None]
            self._absorb(mask, share, now, waf)
            return
        if churn:
            hot_count = np.maximum(
                1, (live_count * HOT_GROUP_FRACTION).astype(np.int64)
            )
            # rank live groups by descending PEC, stable on index; retired
            # lanes sort last behind +inf keys
            key = np.where(alive, -self._pec, np.inf)
            order = np.argsort(key, axis=1, kind="stable")
            rank = np.empty_like(order)
            np.put_along_axis(
                rank,
                order,
                np.broadcast_to(np.arange(self.spec.n_groups), order.shape),
                axis=1,
            )
            hot = alive & (rank < hot_count[:, None])
            share = (gb / hot_count)[:, None]
            self._absorb(hot & active[:, None], share, now, waf)
        else:
            # append round-robin to the k-th live group per device: the
            # first column where the running count of live groups hits k+1
            k = self._cold_cursor % denom
            csum = np.cumsum(alive, axis=1)
            target = np.argmax(csum == (k + 1)[:, None], axis=1)
            mask = np.zeros_like(alive)
            devices = np.flatnonzero(active)
            mask[devices, target[devices]] = True
            self._absorb(mask, gb[:, None], now, waf)
            self._cold_cursor[devices] += 1

    def host_delete(self, gb: np.ndarray) -> None:
        """Remove per-device live data proportionally over groups, in place."""
        self._delete(np.asarray(gb, dtype=float), self.live_data_gb())

    def _delete(self, gb: np.ndarray, total: np.ndarray) -> None:
        """:meth:`host_delete` with ``total``, the partition's
        :meth:`live_data_gb`, already summed."""
        active = (total > 0.0) & (gb > 0.0)
        if not active.any():
            return
        # min(gb, total) / total, not min(1, gb / total): a subnormal
        # total would overflow the ratio
        fraction = np.divide(
            np.minimum(gb, total), total, out=np.zeros_like(total), where=active
        )
        factor = np.where(active, 1.0 - fraction, 1.0)
        alive = ~self._retired if self._retired.any() else True
        np.multiply(self._live, factor[:, None], out=self._live, where=alive)

    # -- quality / reliability --------------------------------------------------

    def _rber(
        self, now: float, extra_age: float = 0.0, from_data_age: bool = True
    ) -> np.ndarray:
        """RBER for every (device, group) lane, batched per operating mode."""
        pec = self._lanes(self._pec)
        if from_data_age:
            ages = self._lanes(np.where(
                self._live > 0.0,
                np.maximum(0.0, now - self._write_time),
                0.0,
            ) + extra_age)
        else:
            ages = np.full(pec.shape, extra_age)
        if not self._heterogeneous:
            return cached_error_model(self.spec.mode).rber_many(pec, ages)
        out = np.empty_like(pec)
        for idx, mode in enumerate(self._mode_ladder):
            sel = self._mode_idx == idx
            if sel.any():
                out[sel] = cached_error_model(mode).rber_many(pec[sel], ages[sel])
        return out

    # -- fault injection --------------------------------------------------------

    def retire_group(self, device: int, index: int) -> bool:
        """Force-retire one group of one device (infant mortality)."""
        self._widen()
        if self._retired[device, index]:
            return False
        self._retired[device, index] = True
        self._live[device, index] = 0.0
        self.retired_count[device] += 1
        return True

    def power_loss_rewrite(self, device: int, index: int, now: float) -> float:
        """Recover a torn program on one group of one device."""
        self._widen()
        if self._retired[device, index] or self._capacity[device, index] <= 0:
            return 0.0
        gb = min(
            float(self._live[device, index]),
            float(self._capacity[device, index]) * 0.05,
        )
        if gb <= 0.0:
            return 0.0
        self._pec[device, index] += (
            gb * self._waf[device] / self._capacity[device, index]
        )
        self.refresh_writes_gb[device] += gb
        return gb

    # -- maintenance ------------------------------------------------------------

    def maintain(self, now: float, scrub_allowed: np.ndarray) -> None:
        """Scrub then health-check the whole population for one day."""
        with get_observer().span("lifetime.maintain", calls=self.n_devices):
            if self.spec.scrub_enabled:
                self._scrub(now, scrub_allowed)
            self._health_check(now)

    def _scrub(self, now: float, allowed: np.ndarray) -> None:
        self._widen()
        holders = ~self._retired & (self._live > 0.0) & allowed[:, None]
        if not holders.any():
            return
        look_ahead = self._rber(now, extra_age=self.spec.health_horizon_years)
        residual = self.spec.protection.residual_ber_many(look_ahead)
        quality = np.exp(-self.spec.quality_sensitivity * residual)
        refresh = holders & (quality < self.spec.scrub_quality_floor)
        if not refresh.any():
            return
        live = np.where(refresh, self._live, 0.0)
        gb = live.sum(axis=1)
        self.refresh_writes_gb += gb
        inc = np.multiply(live, self._waf[:, None], out=live, where=refresh)
        np.divide(inc, self._capacity, out=inc, where=refresh)
        np.add(self._pec, inc, out=self._pec, where=refresh)
        np.copyto(self._write_time, now, where=refresh)
        self._refreshes += refresh
        obs = get_observer()
        if obs.enabled:
            groups = refresh.sum(axis=1)
            for d in np.flatnonzero(groups):
                obs.event(
                    "scrub_refresh", t=now, partition=self.spec.name,
                    device=int(d), groups=int(groups[d]), gb=float(gb[d]),
                )

    def _health_check(self, now: float) -> None:
        alive = ~self._retired
        if not alive.any():
            return
        horizon = self.spec.health_horizon_years
        # no live group near its failing PEC: none can fail, skip the RBER
        bound = min(
            _safe_pec(cached_error_model(mode), self.spec.max_rber, horizon)
            for mode in self._mode_ladder
        )
        if not (alive & (self._pec >= bound)).any():
            return
        predicted = self._rber(now, extra_age=horizon, from_data_age=False)
        failing = alive & (predicted > self.spec.max_rber)
        if not failing.any():
            return
        self._widen()
        obs = get_observer()
        current_bits = self._ladder_bits[self._mode_idx]
        remaining = failing.copy()
        for cand_idx in range(1, len(self._mode_ladder)):
            cand_mode = self._mode_ladder[cand_idx]
            cand_bits = int(self._ladder_bits[cand_idx])
            eligible = remaining & (current_bits > cand_bits)
            if not eligible.any():
                continue
            cand_rber = cached_error_model(cand_mode).rber_many(
                self._pec, np.full(self._pec.shape, horizon)
            )
            ok = eligible & (cand_rber <= self.spec.max_rber)
            if not ok.any():
                continue
            # density drop: capacity shrinks proportionally; live data is
            # re-hosted (counted as refresh writes)
            ratio = cand_bits / current_bits
            self.refresh_writes_gb += np.where(ok, self._live, 0.0).sum(axis=1)
            np.multiply(self._capacity, ratio, out=self._capacity, where=ok)
            np.minimum(self._live, self._capacity, out=self._live, where=ok)
            np.copyto(self._mode_idx, np.int8(cand_idx), where=ok)
            np.copyto(self._write_time, now, where=ok)
            self.resuscitated_count += ok.sum(axis=1)
            self._heterogeneous = True
            if obs.enabled:
                for d, g in zip(*np.nonzero(ok)):
                    obs.event(
                        "block_resuscitated", t=now, partition=self.spec.name,
                        device=int(d), group=int(g), bits=cand_bits,
                    )
            remaining &= ~ok
        if remaining.any():
            self._retired |= remaining
            np.copyto(self._live, 0.0, where=remaining)
            self.retired_count += remaining.sum(axis=1)
            if obs.enabled:
                for d, g in zip(*np.nonzero(remaining)):
                    obs.event(
                        "block_retired", t=now, partition=self.spec.name,
                        device=int(d), group=int(g), reason="wear",
                    )


class BatchLifetimeDevice:
    """N devices of identical topology stepped day by day in lockstep.

    A device build's ``device`` is the one-row case.
    """

    def __init__(self, partitions: dict[str, BatchPartition]) -> None:
        if not partitions:
            raise ValueError("at least one partition required")
        self.partitions = dict(partitions)
        self.n_devices = next(iter(self.partitions.values())).n_devices
        for p in self.partitions.values():
            if p.n_devices != self.n_devices:
                raise ValueError("all partitions must batch the same devices")
        self.now_years = 0.0

    @classmethod
    def from_devices(
        cls, devices: Sequence["BatchLifetimeDevice"]
    ) -> "BatchLifetimeDevice":
        """Stack devices' rows into one batch (one concatenate per field)."""
        names = list(devices[0].partitions)
        for device in devices[1:]:
            if list(device.partitions) != names:
                raise ValueError("all devices must share partition names/order")
        batch = cls(
            {
                name: BatchPartition.stack(
                    [device.partitions[name] for device in devices]
                )
                for name in names
            }
        )
        batch.now_years = devices[0].now_years
        return batch

    def capacity_gb(self) -> np.ndarray:
        """Total current usable capacity per device, ``(n_devices,)``."""
        total = np.zeros(self.n_devices)
        for p in self.partitions.values():
            total = total + p.capacity_gb()
        return total

    def export_state(self) -> dict:
        """Whole-fleet-shard checkpoint: clock plus every partition's arrays."""
        return {
            "now_years": self.now_years,
            "partitions": {
                name: p.export_state() for name, p in self.partitions.items()
            },
        }

    def import_state(self, state: dict) -> None:
        """Inverse of :meth:`export_state`; partition names must match."""
        if set(state["partitions"]) != set(self.partitions):
            raise ValueError(
                "state partitions do not match this batch's partitions"
            )
        for name, partition in self.partitions.items():
            partition.import_state(state["partitions"][name])
        self.now_years = float(state["now_years"])

    def step_day(
        self,
        writes: dict[str, tuple[np.ndarray, np.ndarray]],
        scrub_allowed: np.ndarray,
    ) -> None:
        """Advance all devices one day.

        ``writes`` maps partition name -> per-device ``(new_gb, churn_gb)``
        arrays; ``scrub_allowed`` is False for devices whose scrub pass
        is deferred that day (repair source unreachable).  Scrub and
        health maintenance follow the writes.
        """
        dt = 1.0 / DAYS_PER_YEAR
        self.now_years += dt
        for name, (new_gb, churn_gb) in writes.items():
            partition = self.partitions[name]
            partition.host_write(new_gb, self.now_years, churn=False)
            partition.host_write(churn_gb, self.now_years, churn=True)
        for partition in self.partitions.values():
            partition.maintain(self.now_years, scrub_allowed)


def _apply_day_faults_batch(
    device: BatchLifetimeDevice,
    plan: FaultPlan,
    counters: FaultSummary,
    position: int,
    d: int,
) -> None:
    """Apply one device's scheduled faults for one day (sparse, per event)."""
    obs = get_observer()
    now = device.now_years
    for target, unit in plan.infant_deaths(position):
        partition = device.partitions.get(target)
        if partition is not None and unit < partition.spec.n_groups:
            if partition.retire_group(d, unit):
                counters.infant_deaths += 1
                obs.event("block_retired", t=now, partition=target, device=d,
                          group=int(unit), reason="infant_mortality")
    for target, unit, attempts_needed in plan.transient_reads(position):
        if target not in device.partitions:
            continue
        counters.transient_reads += 1
        retries = min(attempts_needed - 1, plan.config.max_read_retries)
        counters.read_retry_attempts += retries
        if attempts_needed - 1 <= plan.config.max_read_retries:
            counters.reads_recovered += 1
            obs.event("transient_read", t=now, partition=target, device=d,
                      recovered=True, retries=int(retries))
        else:
            counters.reads_unrecovered += 1
            obs.event("transient_read", t=now, partition=target, device=d,
                      recovered=False, retries=int(retries))
    for target, unit in plan.torn_programs(position):
        partition = device.partitions.get(target)
        if partition is not None and unit < partition.spec.n_groups:
            rewritten = partition.power_loss_rewrite(d, unit, now)
            counters.torn_programs += 1
            counters.torn_rewrite_gb += rewritten
            obs.event("torn_program", t=now, partition=target, device=d,
                      group=int(unit), rewrite_gb=float(rewritten))


def run_lifetime_batch(
    builds: Sequence[DeviceBuild],
    summaries: SummaryBatch,
    fault_plans: Sequence[FaultPlan | None] | None = None,
) -> BatchEndState:
    """Run N device builds through their daily volumes in one pass.

    Returns the state after the last day, row ``i`` for build ``i``:
    the same as that build's own :func:`repro.sim.engine.run_lifetime`
    (see the module docstring for the contract with the oracle).  Builds
    must share topology and specs (``waf`` may vary); each build's
    device is updated in place with its final state.
    """
    if not builds:
        raise ValueError("at least one build required")
    n = len(builds)
    if summaries.n_devices != n:
        raise ValueError(
            f"{n} builds but volumes for {summaries.n_devices} devices"
        )
    if summaries.n_days == 0:
        raise ValueError("a lifetime run needs at least one day")
    plans: list[FaultPlan | None]
    if fault_plans is None:
        plans = [None] * n
    else:
        plans = list(fault_plans)
        if len(plans) != n:
            raise ValueError(f"{n} builds but {len(plans)} fault plans")
    device = BatchLifetimeDevice.from_devices([b.device for b in builds])
    counters = [FaultSummary() if plan is not None else None for plan in plans]
    has_faults = any(plan is not None for plan in plans)
    single = "main" in device.partitions
    spare = device.partitions.get("spare")
    sys_part = device.partitions.get("sys") or device.partitions.get("main")
    assert sys_part is not None
    n_scrub_parts = sum(
        1 for p in device.partitions.values() if p.spec.scrub_enabled
    )
    days = summaries.day.tolist()
    # (new_gb, churn_gb) per partition for every device and day, routed
    # up front: each element is the same arithmetic as routing day by day
    media = summaries.new_media_gb
    if single:
        routed = {"main": (media + summaries.new_other_gb, summaries.overwrite_gb)}
    else:
        demoted = media * MEDIA_DEMOTION_RATE
        kept = media - demoted
        routed = {
            "sys": (summaries.new_other_gb + kept + demoted, summaries.overwrite_gb),
            "spare": (demoted, np.zeros_like(demoted)),
        }
    everyone = np.ones(n, dtype=bool)
    obs = get_observer()
    with obs.span("engine.run", calls=n):
        for position, day_value in enumerate(days):
            writes = {
                name: (new[:, position], churn[:, position])
                for name, (new, churn) in routed.items()
            }
            obs.count("engine.days", n)
            if obs.enabled:
                day_total = sum(new + churn for new, churn in writes.values())
                for value in day_total:
                    obs.observe("engine.day_write_gb", float(value))
            scrub_allowed = everyone
            if has_faults:
                scrub_allowed = everyone.copy()
                for d, plan in enumerate(plans):
                    if plan is not None and plan.in_cloud_outage(position):
                        faults = counters[d]
                        assert faults is not None
                        faults.cloud_outage_days += 1
                        faults.scrubs_deferred += n_scrub_parts
                        scrub_allowed[d] = False
            device.step_day(writes, scrub_allowed)
            if has_faults:
                for d, plan in enumerate(plans):
                    if plan is None:
                        continue
                    if not scrub_allowed[d]:
                        obs.event("cloud_outage_day", t=device.now_years,
                                  day=day_value, device=d)
                    faults = counters[d]
                    assert faults is not None
                    _apply_day_faults_batch(device, plan, faults, position, d)
            # deletions: apportion the day's volume across pressured
            # partitions by live-data share, so multi-partition builds
            # delete the same total volume as single-partition ones
            delete = summaries.delete_gb[:, position]
            pressured: dict[str, np.ndarray] = {}
            lives: dict[str, np.ndarray] = {}
            live_total = np.zeros(n)
            for name, partition in device.partitions.items():
                cap = partition.capacity_gb()
                live = partition.live_data_gb()
                utilization = np.divide(
                    live, cap, out=np.ones_like(cap), where=cap > 0.0
                )
                mask = utilization > 0.85
                pressured[name] = mask
                lives[name] = live
                np.add(live_total, live, out=live_total, where=mask)
            apply_delete = live_total > 0.0
            for name, partition in device.partitions.items():
                mask = pressured[name] & apply_delete
                if not mask.any():
                    continue
                share = np.multiply(delete, lives[name], out=np.zeros(n),
                                    where=mask)
                np.divide(share, live_total, out=share, where=mask)
                partition._delete(share, lives[name])
        # the end state, once, after the last day
        now = device.now_years
        media_part = spare if spare is not None else sys_part
        end = BatchEndState(
            day=days[-1],
            years=now,
            capacity_gb=device.capacity_gb(),
            sys_wear_fraction=sys_part.wear_used_fraction(),
            spare_wear_fraction=media_part.wear_used_fraction(),
            spare_quality=media_part.mean_quality(now),
            sys_uncorrectable=sys_part.expected_uncorrectable(now),
            retired_groups=sum(
                p.retired_count for p in device.partitions.values()
            ),
            resuscitated_groups=sum(
                p.resuscitated_count for p in device.partitions.values()
            ),
            faults=counters,
        )
    # each build's device ends the run holding its final state
    for name, partition in device.partitions.items():
        partition.scatter_to([b.device.partitions[name] for b in builds])
    for build in builds:
        build.device.now_years = device.now_years
    return end
