"""Deterministic fault plans: realistic failure populations for the sim.

The paper's premise is a device that keeps working while its media
degrades (§4.3: migration, retirement, resuscitation, cloud repair) --
but idealized uniform decay is the *easy* case.  "The Dirty Secret of
SSDs" (PAPERS.md) observes that real failure populations are dominated
by infant mortality and wear-out variance, plus transient faults the
firmware must absorb: flaky reads, power-loss-interrupted programs, and
unreachable repair sources.

A :class:`FaultPlan` precomputes the *entire* fault schedule from a
``(seed, FaultConfig)`` pair before any simulation step runs:

* **block infant-mortality deaths** -- units (block groups in the epoch
  model, physical blocks in the bit-exact FTL) that die early in life;
* **transient read failures** -- reads that fail once and may recover
  under bounded retry;
* **power-loss torn programs** -- an interrupted program whose write
  unit must be re-programmed;
* **cloud outage windows** -- day intervals during which the cloud
  repair source is unreachable.

Precomputing the schedule is what makes fault injection deterministic by
construction: the event log depends only on ``(seed, config, horizon,
targets)`` -- never on worker count, completion order, or wall-clock --
so serial and parallel runs replay the identical fault history, and a
zero-rate plan is observationally identical to no plan at all.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

from repro.flash.chip import DAYS_PER_YEAR
from repro.ftl.bad_blocks import infant_mortality_deaths

__all__ = ["FaultConfig", "FaultEvent", "FaultPlan", "FaultSummary", "plan_for_build"]

#: Target name reserved for device-wide cloud connectivity events.
CLOUD_TARGET = "cloud"


@dataclass(frozen=True, slots=True)
class FaultConfig:
    """Rates and windows of the injected failure population.

    All rates default to zero, which yields an empty plan; experiments
    opt in per fault class.

    Attributes
    ----------
    block_infant_mortality:
        Probability that any given unit (block group / physical block)
        dies during the infant window.
    infant_window_days:
        Days after first power-on during which infant deaths occur.
    transient_read_rate:
        Expected transient read-failure events per day per target.
    max_read_retries:
        Bounded retry budget: a transient read needing more attempts
        than this is counted unrecovered (graceful degradation).
    power_loss_rate:
        Expected power-loss-interrupted programs per day per target.
    cloud_outage_rate:
        Expected cloud-outage window *starts* per day.
    cloud_outage_days:
        Duration of each outage window, in days.
    """

    block_infant_mortality: float = 0.0
    infant_window_days: int = 90
    transient_read_rate: float = 0.0
    max_read_retries: int = 3
    power_loss_rate: float = 0.0
    cloud_outage_rate: float = 0.0
    cloud_outage_days: int = 3

    def __post_init__(self) -> None:
        for name in ("block_infant_mortality", "transient_read_rate",
                     "power_loss_rate", "cloud_outage_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.block_infant_mortality <= 1.0:
            raise ValueError("block_infant_mortality must be a probability")

    def to_params(self) -> dict:
        """Plain JSON-able dict form (cache-keyable by construction)."""
        return asdict(self)

    @classmethod
    def from_params(cls, params: Mapping) -> "FaultConfig":
        """Inverse of :meth:`to_params` (unknown keys rejected)."""
        return cls(**dict(params))

    @property
    def is_zero(self) -> bool:
        """Whether every fault rate is zero (plan will be empty)."""
        return (
            self.block_infant_mortality == 0.0
            and self.transient_read_rate == 0.0
            and self.power_loss_rate == 0.0
            and self.cloud_outage_rate == 0.0
        )


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled fault.

    ``detail`` carries the kind-specific payload: attempts needed for a
    transient read to succeed, or window length (days) for an outage.
    """

    day: int
    kind: str  # "infant_death" | "transient_read" | "torn_program" | "cloud_outage"
    target: str
    unit: int = 0
    detail: int = 0

    def to_dict(self) -> dict:
        """JSON-safe dict form (event-log serialization)."""
        return asdict(self)


@dataclass(slots=True)
class FaultSummary:
    """Structured counters of fault events applied during one run."""

    infant_deaths: int = 0
    transient_reads: int = 0
    reads_recovered: int = 0
    reads_unrecovered: int = 0
    read_retry_attempts: int = 0
    torn_programs: int = 0
    torn_rewrite_gb: float = 0.0
    cloud_outage_days: int = 0
    scrubs_deferred: int = 0
    repairs_failed: int = 0

    def as_dict(self) -> dict:
        """Plain dict form for reports and benchmark tables."""
        return asdict(self)

    @property
    def total_events(self) -> int:
        """All discrete fault events applied."""
        return (self.infant_deaths + self.transient_reads
                + self.torn_programs + self.cloud_outage_days)


class FaultPlan:
    """A fully precomputed, seeded fault schedule.

    Construct via :meth:`generate`; the plan exposes per-day lookups for
    the simulation loop plus the full ordered event log and a digest for
    determinism checks (``repro faults selftest``).
    """

    def __init__(
        self,
        config: FaultConfig,
        seed: int,
        horizon_days: int,
        targets: dict[str, int],
        events: tuple[FaultEvent, ...],
    ) -> None:
        self.config = config
        self.seed = seed
        self.horizon_days = horizon_days
        self.targets = dict(targets)
        self.events = events
        self._infant_by_day: dict[int, list[tuple[str, int]]] = {}
        self._reads_by_day: dict[int, list[tuple[str, int, int]]] = {}
        self._torn_by_day: dict[int, list[tuple[str, int]]] = {}
        windows: list[tuple[int, int]] = []
        for event in events:
            if event.kind == "infant_death":
                self._infant_by_day.setdefault(event.day, []).append(
                    (event.target, event.unit)
                )
            elif event.kind == "transient_read":
                self._reads_by_day.setdefault(event.day, []).append(
                    (event.target, event.unit, event.detail)
                )
            elif event.kind == "torn_program":
                self._torn_by_day.setdefault(event.day, []).append(
                    (event.target, event.unit)
                )
            elif event.kind == "cloud_outage":
                windows.append((event.day, event.day + event.detail))
        self.outage_windows = _merge_windows(windows)

    # -- construction ---------------------------------------------------------

    @classmethod
    def generate(
        cls,
        config: FaultConfig,
        seed: int,
        horizon_days: int,
        targets: Mapping[str, int],
    ) -> "FaultPlan":
        """Sample the full fault schedule for a run.

        Parameters
        ----------
        config:
            Fault rates.
        seed:
            Root of the plan's RNG; everything derives from it.
        horizon_days:
            Length of the simulated run, in days.
        targets:
            Unit counts per target name, e.g. ``{"sys": 20, "spare": 20}``
            (block groups for the epoch model, per-stream physical block
            counts for the bit-exact device).
        """
        if horizon_days <= 0:
            raise ValueError("horizon_days must be positive")
        if CLOUD_TARGET in targets:
            raise ValueError(f"target name {CLOUD_TARGET!r} is reserved")
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []
        infant_window = max(1, min(config.infant_window_days, horizon_days))
        # sorted target order keeps the rng consumption sequence stable
        for name in sorted(targets):
            count = int(targets[name])
            for unit in infant_mortality_deaths(
                count, config.block_infant_mortality, rng
            ):
                events.append(FaultEvent(
                    day=int(rng.integers(0, infant_window)),
                    kind="infant_death", target=name, unit=unit,
                ))
            n_reads = int(rng.poisson(config.transient_read_rate * horizon_days))
            for _ in range(n_reads):
                events.append(FaultEvent(
                    day=int(rng.integers(0, horizon_days)),
                    kind="transient_read", target=name,
                    unit=int(rng.integers(0, max(1, count))),
                    # attempts the read needs before it succeeds (>= 1 retry)
                    detail=int(rng.geometric(0.5)),
                ))
            n_torn = int(rng.poisson(config.power_loss_rate * horizon_days))
            for _ in range(n_torn):
                events.append(FaultEvent(
                    day=int(rng.integers(0, horizon_days)),
                    kind="torn_program", target=name,
                    unit=int(rng.integers(0, max(1, count))),
                ))
        n_outages = int(rng.poisson(config.cloud_outage_rate * horizon_days))
        for _ in range(n_outages):
            events.append(FaultEvent(
                day=int(rng.integers(0, horizon_days)),
                kind="cloud_outage", target=CLOUD_TARGET,
                detail=max(1, int(config.cloud_outage_days)),
            ))
        events.sort(key=lambda e: (e.day, e.kind, e.target, e.unit, e.detail))
        return cls(config, seed, horizon_days, dict(targets), tuple(events))

    # -- per-day lookups ------------------------------------------------------

    def infant_deaths(self, day: int) -> list[tuple[str, int]]:
        """(target, unit) pairs dying on ``day``."""
        return self._infant_by_day.get(day, [])

    def transient_reads(self, day: int) -> list[tuple[str, int, int]]:
        """(target, unit, attempts_needed) transient read events on ``day``."""
        return self._reads_by_day.get(day, [])

    def torn_programs(self, day: int) -> list[tuple[str, int]]:
        """(target, unit) power-loss-interrupted programs on ``day``."""
        return self._torn_by_day.get(day, [])

    def in_cloud_outage(self, day: int) -> bool:
        """Whether ``day`` falls inside any outage window."""
        return any(start <= day < end for start, end in self.outage_windows)

    def outage_windows_years(self) -> tuple[tuple[float, float], ...]:
        """Outage windows converted to the device's year clock."""
        return tuple((s / DAYS_PER_YEAR, e / DAYS_PER_YEAR) for s, e in self.outage_windows)

    # -- identity -------------------------------------------------------------

    @property
    def empty(self) -> bool:
        """Whether the plan schedules no events at all."""
        return not self.events

    def event_log(self) -> list[dict]:
        """The full schedule as plain dicts, in deterministic order."""
        return [event.to_dict() for event in self.events]

    def digest(self) -> str:
        """SHA-256 over the canonical encoding of (inputs, schedule).

        Two plans with equal digests replay the identical fault history;
        the ``faults selftest`` CLI checks this across regenerations.
        """
        payload = {
            "config": self.config.to_params(),
            "seed": self.seed,
            "horizon_days": self.horizon_days,
            "targets": {k: int(v) for k, v in sorted(self.targets.items())},
            "events": self.event_log(),
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultPlan(seed={self.seed}, horizon_days={self.horizon_days}, "
            f"events={len(self.events)}, outages={len(self.outage_windows)})"
        )


def _merge_windows(windows: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Merge overlapping [start, end) intervals."""
    merged: list[tuple[int, int]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return tuple(merged)


def plan_for_build(build, fault_params: Mapping | None, days: int, seed: int):
    """The :class:`FaultPlan` for ``build`` from plain-data params.

    The schedule targets every partition of the build (units = block
    groups) and is generated *before* the run, so it depends only on
    ``(fault_params, seed, days, build shape)`` -- never on worker
    placement or completion order.  Omitted or all-zero params give
    None: the exact fault-free run.
    """
    if not fault_params:
        return None
    config = FaultConfig.from_params(fault_params)
    if config.is_zero:
        return None
    targets = {
        name: partition.spec.n_groups
        for name, partition in build.device.partitions.items()
    }
    return FaultPlan.generate(config, seed=seed, horizon_days=days, targets=targets)
