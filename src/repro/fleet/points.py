"""The shard point function and the chunk functions it steps.

:func:`fleet_shard_point` lives at module scope so worker processes can
unpickle it by reference.  A shard point is the composition this
package exists for: it derives its slice of the population *locally*
(mix assignment and workload seeds from global device indices), steps
the slice through one of the two chunk functions in ``chunk``-device
passes -- :func:`population_batch_observables` (the batched epoch
engine) or :func:`ftl_population_observables` (the page-mapped FTL) --
and returns the slice's observable columns.  Those columns are the
shard's one record: the result cache lifts them into its column store,
and :func:`~repro.fleet.run.run_fleet` and the off-disk
:func:`~repro.fleet.run.fleet_wear_from_store` both digest the
``wear`` column, the same way.  An epoch chunk is one array program:
one build of N device rows, one volume block per mix (each device's
jitter still drawn from its own generator), and one engine pass.  Its
columns are the arrays of the engine's end state under the store's
column names, so no per-device result object is built between the
engine and the digest.

A chunk function takes plain-data params: ``mixes`` and
``workload_seeds`` (parallel per-device lists), ``capacity_gb``,
``days``, and for the epoch engine an optional ``build``
(``ALL_BUILDERS`` key, default ``tlc_baseline``) and ``faults``
(plain-data FaultConfig mapping; each device's plan is seeded by its
workload seed).  Every device is a pure function of its own entries,
so any chunking of a population produces bit-identical columns.
"""

from __future__ import annotations

import numpy as np

from repro.obs import get_observer
from repro.workloads.mobile import MobileWorkload, WorkloadConfig

from .plan import assign_mixes

__all__ = [
    "fleet_shard_point",
    "ftl_population_observables",
    "population_batch_observables",
]


def population_batch_observables(params: dict) -> dict:
    """End-of-life observables of one chunk on the batched epoch engine.

    One vectorized :func:`repro.sim.batch.run_lifetime_batch` pass over
    one build of the chunk's N device rows
    (:meth:`~repro.sim.baselines.DeviceBuild.for_devices`), with one
    multi-user :class:`~repro.workloads.mobile.MobileWorkload` per mix
    forming its devices' volumes.  The columns are arrays of the engine's
    :class:`~repro.sim.batch.BatchEndState`, renamed and untouched:
    float64 ``wear`` (SYS wear fraction), ``spare_wear``,
    ``capacity_gb`` and ``spare_quality``, and int64
    ``retired_groups`` and ``resuscitated_groups``, in device order --
    exactly the shape the columnar result store packs into compressed
    blocks.
    """
    from repro.sim.baselines import ALL_BUILDERS
    from repro.sim.batch import SummaryBatch, run_lifetime_batch

    days = params["days"]
    mixes = list(params["mixes"])
    seeds = list(params["workload_seeds"])
    if len(mixes) != len(seeds):
        raise ValueError("mixes and workload_seeds must be parallel lists")
    # each mix's device rows, in device order
    rows: dict[str, list[int]] = {}
    for device, mix in enumerate(mixes):
        rows.setdefault(mix, []).append(device)
    volumes = [
        MobileWorkload(
            WorkloadConfig(mix=mix, days=days), seeds=[seeds[d] for d in devices]
        ).daily_volume_arrays()
        for mix, devices in rows.items()
    ]
    summaries = SummaryBatch.from_volume_arrays(volumes, list(rows.values()))
    build = ALL_BUILDERS[params.get("build", "tlc_baseline")](
        params["capacity_gb"]
    ).for_devices(len(seeds))
    plans = None
    if params.get("faults"):
        from repro.faults.plan import plan_for_build

        plans = [plan_for_build(build, params["faults"], days, ws) for ws in seeds]
    # the engine takes one RBER and ECC pass over the chunk's groups,
    # after the last day: each device's end state is all a fleet reads
    end = run_lifetime_batch([build], summaries, plans)
    return {
        "wear": end.sys_wear_fraction,
        "spare_wear": end.spare_wear_fraction,
        "capacity_gb": end.capacity_gb,
        "spare_quality": end.spare_quality,
        "retired_groups": end.retired_groups,
        "resuscitated_groups": end.resuscitated_groups,
    }


def ftl_population_observables(params: dict) -> dict:
    """End-of-life observables of one chunk at FTL fidelity.

    The page-level sibling of :func:`population_batch_observables`:
    each device is replayed through the page-mapped FTL
    (:func:`repro.ftl.replay.replay` on the analytic chip fast path)
    instead of the epoch-level lifetime model.

    Columns (device order): ``wear`` (mean PEC-over-rated across live
    blocks -- the digest input), ``max_wear``, and int64 activity
    counters ``gc_erases``, ``gc_migrations``, ``wl_migrations``,
    ``host_writes``, ``retired_blocks``.
    """
    from repro.ftl.replay import FtlReplayConfig, replay

    mixes = list(params["mixes"])
    seeds = list(params["workload_seeds"])
    if len(mixes) != len(seeds):
        raise ValueError("mixes and workload_seeds must be parallel lists")
    results = [
        replay(
            FtlReplayConfig(
                mix=mix,
                days=int(params["days"]),
                capacity_gb=float(params["capacity_gb"]),
                seed=int(ws),
            )
        )
        for mix, ws in zip(mixes, seeds)
    ]
    return {
        "wear": np.array([r.mean_wear for r in results], dtype=np.float64),
        "max_wear": np.array([r.max_wear for r in results], dtype=np.float64),
        "gc_erases": np.array([r.stats.gc_erases for r in results], dtype=np.int64),
        "gc_migrations": np.array(
            [r.stats.gc_migrations for r in results], dtype=np.int64
        ),
        "wl_migrations": np.array(
            [r.stats.wl_migrations for r in results], dtype=np.int64
        ),
        "host_writes": np.array(
            [r.stats.host_writes for r in results], dtype=np.int64
        ),
        "retired_blocks": np.array(
            [r.retired_blocks for r in results], dtype=np.int64
        ),
    }


def fleet_shard_point(params: dict, seed: int) -> dict:
    """Simulate devices ``start .. start+count-1``; return their columns.

    params (see :meth:`repro.fleet.plan.FleetPlan.shard_grid`, which
    validated them): ``start``, ``count``, ``pop_seed``, ``mix_weights``
    (ordered ``[name, weight]`` pairs), ``capacity_gb``, ``days``,
    ``build``, ``workload_seed_base``, ``chunk``, ``fidelity``
    (``"ftl"`` replays each device through the page-mapped FTL instead
    of the epoch lifetime model) and optional ``faults``.

    Returns ``{"devices", "start", "obs"}``: ``obs`` holds the shard's
    end-of-life observable *columns* (float64/int64 arrays in device
    order, ``wear``/``spare_wear``/``capacity_gb``/... -- see
    :func:`population_batch_observables`).
    """
    start = int(params["start"])
    count = int(params["count"])
    chunk = int(params["chunk"])
    observe = (
        ftl_population_observables if params["fidelity"] == "ftl"
        else population_batch_observables
    )
    base = int(params["workload_seed_base"])
    parts: list[dict] = []
    for offset in range(0, count, chunk):
        sub = min(chunk, count - offset)
        lo = start + offset
        batch_params = {
            "mixes": assign_mixes(params["pop_seed"], params["mix_weights"], lo, sub),
            "workload_seeds": list(range(base + lo, base + lo + sub)),
            "capacity_gb": params["capacity_gb"],
            "days": params["days"],
            "build": params["build"],
        }
        if params.get("faults"):
            batch_params["faults"] = params["faults"]
        parts.append(observe(batch_params))
    obs_columns = {
        name: np.concatenate([part[name] for part in parts])
        for name in parts[0]
    }
    get_observer().count("fleet.shard_devices", count)
    return {"devices": count, "start": start, "obs": obs_columns}
