"""Fleet-of-fleets execution: shards fanned across the sweep runner.

:func:`run_fleet` composes the two engines this repo already has into
one scale-out path:

* the **batch engine** (:mod:`repro.sim.batch`) simulates each shard's
  devices as vectorized array passes;
* the **sweep coordinator** (:mod:`repro.runner.sweep`) fans shards
  over worker processes and supplies per-shard crash-resume caching,
  retries, timeouts, and structured failure records -- a shard is one
  sweep point, so every fault-tolerance guarantee the runner makes for
  points holds per shard.

Reduction is streaming: shards resolve through the runner's
``on_point`` hook with ``keep_values=False``, each shard's ``wear``
column is digested in one array pass and folded into the fleet's
:class:`~repro.fleet.reduce.WearDigest` with one array add (and obs
snapshots into a :class:`~repro.obs.SnapshotAccumulator`) immediately,
and the shard value is dropped.  Coordinator memory is therefore one
shard's columns plus the running digests and one float per shard; an
exact-mode fleet (at most ``exact_cap`` devices) also keeps each
shard's wear values, from which it reassembles the device-ordered wear
vector.  A histogram-mode million-device fleet reduces in the same
footprint as a thousand-device one.

A finished fleet's digest can also be rebuilt off disk, from the wear
column in the result cache's store (:func:`fleet_wear_from_store`).
Both routes digest a shard in :func:`_fold_shard` and sum shard totals
in shard order, so they agree in every field, at any ``jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.chaos import DEFAULT_DURABILITY, crash_point
from repro.obs import SnapshotAccumulator, get_observer
from repro.runner.cache import code_fingerprint
from repro.runner.sweep import PointResult, Sweep, SweepResult, derive_seeds, run_sweep

from .plan import FleetPlan
from .points import fleet_shard_point
from .reduce import WearDigest

__all__ = [
    "FleetResult",
    "fleet_store_keys",
    "fleet_wear_from_store",
    "run_fleet",
]

def _fleet_sweep(plan: FleetPlan, name: str) -> Sweep:
    """The sweep :func:`run_fleet` runs: one point per shard, in device
    order, under the cache namespace ``name``."""
    return Sweep(
        name=name,
        fn=fleet_shard_point,
        grid=plan.shard_grid(),
        base_seed=plan.seed,
    )


def _fold_shard(wear: WearDigest, column) -> WearDigest:
    """Digest one shard's wear column (device order) and merge it into
    ``wear``; returns the shard's own digest."""
    shard = WearDigest(keep_exact=wear.is_exact)
    shard.add_many(column)
    wear.merge_in(shard)
    return shard


@dataclass(slots=True)
class FleetResult:
    """Reduced outcome of one fleet run.

    ``wear`` aggregates every completed shard; under ``keep_going``
    some shards may have failed (see ``sweep.errors``), in which case
    ``wear.count < plan.n_devices`` and the exact wear vector is
    unavailable even for exact-mode fleets.
    """

    plan: FleetPlan
    wear: WearDigest
    sweep: SweepResult
    #: merged worker-side metrics snapshot (``collect_obs`` runs only)
    obs_metrics: dict | None = None

    @property
    def devices(self) -> int:
        """Devices actually simulated (< plan.n_devices when shards failed)."""
        return self.wear.count

    @property
    def ok(self) -> bool:
        return self.sweep.ok

    @property
    def missing_devices(self) -> int:
        """Devices the plan asked for that no completed shard delivered."""
        return self.plan.n_devices - self.wear.count

    def wear_values(self) -> list[float] | None:
        """Per-device wear in global device order, exact fleets only.

        None for histogram-mode fleets *and* for incomplete runs
        (``keep_going`` with failed shards): a partial vector cannot
        claim global device order, so it is never offered.
        """
        return None if self.wear.exact is None else list(self.wear.exact)

    def summary(self) -> dict:
        """Plain-data headline statistics for reports and benches.

        Partial fleets (``keep_going`` runs with failed shards) are
        flagged loudly rather than silently under-counted:
        ``complete`` goes False, ``failed_shards``/``missing_devices``
        say how much is absent, and the quantile fields describe only
        the ``devices`` that actually completed.  ``code`` is the
        :func:`~repro.runner.cache.code_fingerprint` of the source that
        computed it.
        """
        empty = self.wear.count == 0
        median, p90, p99 = (
            (None,) * 3 if empty else self.wear.quantiles((0.5, 0.90, 0.99))
        )
        return {
            "devices": self.devices,
            "requested_devices": self.plan.n_devices,
            "missing_devices": self.missing_devices,
            "shards": self.plan.n_shards,
            "failed_shards": self.sweep.failed_count,
            "complete": self.ok and self.missing_devices == 0,
            "shard_size": self.plan.shard_size,
            "chunk": self.plan.chunk,
            "exact": self.wear.is_exact,
            "median": median,
            "p90": p90,
            "p99": p99,
            "max": None if empty else self.wear.max,
            "mean": None if empty else self.wear.mean(),
            "worn_out_fraction": None if empty else self.wear.worn_out_fraction(),
            "wall_s": self.sweep.total_wall_s,
            "storage": dict(self.sweep.storage),
            "code": code_fingerprint(),
        }


def run_fleet(
    plan: FleetPlan,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    retries: int = 0,
    timeout_s: float | None = None,
    keep_going: bool = False,
    collect_obs: bool = False,
    name: str = "fleet",
    should_stop: Callable[[], bool] | None = None,
    on_shard: Callable[[int, int, int], None] | None = None,
    durability: str = DEFAULT_DURABILITY,
) -> FleetResult:
    """Run a fleet plan: shard, fan out, reduce streamingly.

    Parameters mirror :func:`repro.runner.sweep.run_sweep` (each shard
    is one sweep point); ``name`` namespaces the cache so different
    callers' fleets never share entries.  Exact-mode fleets
    (``plan.exact``) additionally reassemble the per-device wear vector
    in global device order once every shard has completed.

    ``should_stop`` is the job-level cancellation hook: polled by the
    sweep coordinator, and returning True kills every in-flight shard's
    worker and raises :class:`~repro.runner.sweep.SweepCancelled`
    (completed shards stay cached, so a re-run resumes).  ``on_shard``
    is the job-level progress feed, called in the coordinator after
    each shard reduces as ``on_shard(shards_done, total_shards,
    devices_done)`` -- a gateway streams these into its metrics.
    """
    sweep = _fleet_sweep(plan, name)
    obs = get_observer()
    # exactness was decided by the plan.  Shard exact values concatenate
    # in completion order in the digest, and shard totals sum in that
    # order too; both are re-assembled in shard order below, so no
    # field depends on the order in which shards complete
    wear = WearDigest(keep_exact=plan.exact)
    totals: dict[int, float] = {}
    exact_parts: dict[int, list[float]] = {}
    obs_acc = SnapshotAccumulator() if collect_obs else None

    def reduce_shard(point: PointResult) -> None:
        shard = _fold_shard(wear, point.value["obs"]["wear"])
        totals[point.index] = shard.total
        if shard.exact is not None:
            exact_parts[point.index] = shard.exact
        obs.count("fleet.shards_done")
        obs.count("fleet.devices_done", shard.count)
        if obs_acc is not None and point.obs is not None:
            obs_acc.add(point.obs["metrics"])
            point.obs = None  # folded; keep coordinator memory shard-bounded
        crash_point("fleet.shard.reduced")
        if on_shard is not None:
            on_shard(len(totals), plan.n_shards, wear.count)

    result = run_sweep(
        sweep,
        jobs=jobs,
        cache_dir=cache_dir,
        retries=retries,
        timeout_s=timeout_s,
        keep_going=keep_going,
        collect_obs=collect_obs,
        on_point=reduce_shard,
        keep_values=False,
        should_stop=should_stop,
        durability=durability,
    )
    wear.total = 0.0
    for index in sorted(totals):
        wear.total += totals[index]
    if plan.exact:
        # incomplete fleets (keep_going with failed shards) cannot
        # claim a device-ordered exact vector
        wear.exact = (
            [value for index in sorted(exact_parts) for value in exact_parts[index]]
            if len(exact_parts) == plan.n_shards else None
        )
    obs_metrics = (
        obs_acc.snapshot() if obs_acc is not None and obs_acc.count else None
    )
    return FleetResult(plan=plan, wear=wear, sweep=result, obs_metrics=obs_metrics)


def fleet_store_keys(plan: FleetPlan, name: str = "fleet") -> list[str]:
    """The cache/store keys of ``plan``'s shards, in shard (device) order.

    Exactly the keys :func:`run_fleet` persists under -- same sweep
    name, source fingerprint, grid, and derived seeds -- so the source
    that ran a fleet can query its column store without re-running
    anything.
    """
    sweep = _fleet_sweep(plan, name)
    seeds = derive_seeds(plan.seed, plan.n_shards)
    return [sweep.point_key(i, seed) for i, seed in enumerate(seeds)]


def fleet_wear_from_store(
    plan: FleetPlan,
    cache_dir: str | Path,
    name: str = "fleet",
    column: str = "obs.wear",
) -> WearDigest:
    """Rebuild a finished fleet's wear digest *off-disk*, from the store.

    Reads only the ``column`` entries of ``plan``'s shard keys out of
    the cache's column store (block-indexed; no per-shard pickles are
    rehydrated and nothing is recomputed) and folds them in shard order
    -- which **is** global device order -- through the same per-shard
    digest :func:`run_fleet` uses, so the result equals the in-memory
    reduction in every field, ``total`` and exact vector included.
    Raises ``KeyError`` when a shard is missing from the store
    (unfinished or damaged fleet): a partial digest is never silently
    offered.
    """
    from repro.runner.cache import ResultCache
    from repro.store import ColumnStore

    path = Path(cache_dir) / ResultCache.STORE_FILE
    store = ColumnStore(path, mode="read")
    wear = WearDigest(keep_exact=plan.exact)
    for index, key in enumerate(fleet_store_keys(plan, name=name)):
        arrays = store.get(key, columns=[column])
        if arrays is None:
            raise KeyError(
                f"shard {index} of fleet '{name}' is not in the store "
                f"(key {key}); run the fleet to completion first"
            )
        _fold_shard(wear, arrays[column])
    return wear
