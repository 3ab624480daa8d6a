"""Picklable sweep-point functions for the sweep-shaped experiments.

Worker processes unpickle point functions by module reference, so every
function the runner fans out must live at module scope in an importable
module.  This module hosts the point functions behind the CLI
``lifetime`` command and the sweep-shaped benchmarks (A2 split sweep,
A3 threshold sweep, A6 sensitivity grid, E16 population wear).

Each function takes ``(params, seed)``: ``params`` is the plain-data
grid point, ``seed`` is the runner-derived per-point seed.  Experiments
that pin their own workload seeds (to reproduce published tables) carry
them in ``params`` and ignore the derived seed; population-style sweeps
use the derived seed directly.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.workloads.mobile import MobileWorkload, WorkloadConfig

__all__ = [
    "DEFAULT_MIX_WEIGHTS",
    "assign_mixes",
    "lifetime_point",
    "split_point",
    "threshold_point",
    "sensitivity_batch_point",
    "population_batch_point",
    "population_batch_observables",
    "population_batch_grid",
    "ftl_population_point",
    "ftl_population_observables",
    "fault_ablation_point",
]

#: population intensity mix: mostly light/typical, thin heavy tail.
#: Shared by the E16/E14 population benches and the CLI ``population``
#: command so every "realistic fleet" in the repo means the same fleet.
DEFAULT_MIX_WEIGHTS = {
    "light": 0.35,
    "typical": 0.45,
    "heavy": 0.18,
    "adversarial": 0.02,
}


def assign_mixes(
    seed: int,
    mix_weights,
    start: int,
    count: int,
) -> list[str]:
    """Intensity-mix assignment for devices ``start .. start+count-1``.

    The population convention: device ``u``'s mix is the ``u``-th draw
    of the ``numpy.random.default_rng(seed)`` stream through
    ``rng.choice(len(mixes), p=weights)`` -- one PCG64 state step per
    device.  This function reproduces those draws **bit-identically**
    (pinned by tests against the sequential loop) but derives them from
    the *global* device index: ``PCG64.advance(start)`` jumps straight
    to device ``start``'s draw in O(1), and the block of ``count``
    uniforms then resolves through the same normalized-CDF searchsorted
    that ``Generator.choice`` uses internally.

    Two properties follow, and the fleet sharding layer leans on both:

    * **chunk/shard invariance** -- a device's mix depends only on
      ``(seed, mix_weights, global index)``, never on how the
      population is cut into shards or how large it is;
    * **shard-local construction** -- a shard worker materializes its
      own slice of the assignment in O(shard) time and memory, so
      nobody ever builds (or ships) the million-entry global list.

    ``mix_weights`` is a name->weight mapping or a sequence of
    ``(name, weight)`` pairs; **order matters** (it fixes which CDF
    interval each name owns), which is why sharded grids carry the
    weights as an ordered list of pairs.
    """
    if count < 0 or start < 0:
        raise ValueError("start and count must be non-negative")
    pairs = (
        list(mix_weights.items())
        if hasattr(mix_weights, "items")
        else [(str(name), float(weight)) for name, weight in mix_weights]
    )
    if not pairs:
        raise ValueError("mix_weights must name at least one mix")
    names = [name for name, _ in pairs]
    weights = np.array([weight for _, weight in pairs], dtype=float)
    if (weights < 0).any() or weights.sum() <= 0:
        raise ValueError("mix weights must be non-negative with a positive sum")
    if count == 0:
        return []
    # the exact normalization chain of Generator.choice(p=weights/sum):
    # choice re-normalizes its (already normalized) p via the CDF
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    uniforms = np.random.Generator(
        np.random.PCG64(seed).advance(start)
    ).random(count)
    return [names[i] for i in cdf.searchsorted(uniforms, side="right")]


def _summaries(mix: str, days: int, seed: int):
    return MobileWorkload(WorkloadConfig(mix=mix, days=days, seed=seed)).daily_summaries()


def _fault_plan(build, fault_params: dict | None, days: int, seed: int):
    """Materialize a FaultPlan for ``build`` from plain-data params.

    The schedule targets every partition of the build (units = block
    groups) and is generated *before* the run, so it depends only on
    ``(fault_params, seed, days, build shape)`` -- never on worker
    placement or completion order.
    """
    if not fault_params:
        return None
    from repro.faults.plan import FaultConfig, FaultPlan

    config = FaultConfig.from_params(fault_params)
    if config.is_zero:
        return None
    targets = {
        name: partition.spec.n_groups
        for name, partition in build.device.partitions.items()
    }
    return FaultPlan.generate(config, seed=seed, horizon_days=days, targets=targets)


def lifetime_point(params: dict, seed: int):
    """One (build, workload) lifetime run; the CLI ``lifetime`` point.

    params: ``build`` (key into ALL_BUILDERS), ``capacity_gb``, ``mix``,
    ``days``, ``workload_seed`` (optional; the derived seed otherwise),
    ``faults`` (optional plain-data :class:`FaultConfig` mapping; omitted
    or all-zero means the exact fault-free run).
    Returns the :class:`~repro.sim.lifetime.LifetimeResult`.
    """
    from repro.sim.baselines import ALL_BUILDERS
    from repro.sim.engine import run_lifetime

    workload_seed = params.get("workload_seed")
    summaries = _summaries(
        params["mix"], params["days"], seed if workload_seed is None else workload_seed
    )
    build = ALL_BUILDERS[params["build"]](params["capacity_gb"])
    plan = _fault_plan(build, params.get("faults"), params["days"], seed)
    return run_lifetime(build, summaries, fault_plan=plan)


def split_point(params: dict, seed: int) -> dict:
    """One SPARE-fraction point of the A2 split sweep.

    params: ``spare_fraction``, ``capacity_gb``, ``mix``, ``days``,
    ``workload_seed``.
    """
    from repro.core.config import default_config
    from repro.core.partitions import density_gain
    from repro.sim.baselines import build_sos, build_tlc_baseline
    from repro.sim.engine import run_lifetime

    fraction = params["spare_fraction"]
    summaries = _summaries(params["mix"], params["days"], params["workload_seed"])
    tlc = build_tlc_baseline(params["capacity_gb"])
    build = build_sos(params["capacity_gb"], spare_fraction=fraction)
    result = run_lifetime(build, summaries)
    return {
        "fraction": fraction,
        "gain": density_gain(default_config(spare_fraction=fraction)),
        "carbon_reduction": 1 - build.intensity_kg_per_gb / tlc.intensity_kg_per_gb,
        "result": result,
    }


def threshold_point(params: dict, seed: int):
    """One demote-threshold point of the A3 classifier sweep.

    params: ``threshold``, ``n_files``, ``now_years``, ``corpus_seed``.
    The corpus is regenerated per point from ``corpus_seed``, so every
    point trains on the identical corpus regardless of worker placement.
    """
    from repro.classify.classifier import train_classifier
    from repro.classify.corpus import CorpusConfig, generate_corpus

    corpus = generate_corpus(
        CorpusConfig(n_files=params["n_files"]), seed=params["corpus_seed"]
    )
    _, metrics = train_classifier(
        corpus,
        params["now_years"],
        demote_threshold=params["threshold"],
        seed=params["corpus_seed"],
    )
    return metrics


def fault_ablation_point(params: dict, seed: int) -> dict:
    """One fault-scale point of the A9 fault-injection ablation.

    params: ``fault_scale`` (multiplier on the base fault rates),
    ``capacity_gb``, ``mix``, ``days``, ``workload_seed``.  Returns the
    end-of-life survival metrics plus the structured fault counters, so
    the benchmark can claim both graceful degradation and counter
    scaling.
    """
    from repro.sim.baselines import build_sos
    from repro.sim.engine import run_lifetime

    scale = params["fault_scale"]
    summaries = _summaries(params["mix"], params["days"], params["workload_seed"])
    build = build_sos(params["capacity_gb"])
    plan = _fault_plan(
        build,
        {
            "block_infant_mortality": 0.02 * scale,
            "transient_read_rate": 0.5 * scale,
            "power_loss_rate": 0.1 * scale,
            "cloud_outage_rate": 0.02 * scale,
            "cloud_outage_days": 3,
        },
        params["days"],
        params["workload_seed"],
    )
    result = run_lifetime(build, summaries, fault_plan=plan)
    final = result.final
    faults = result.faults.as_dict() if result.faults is not None else {}
    return {
        "fault_scale": scale,
        "capacity_fraction": final.capacity_gb / params["capacity_gb"],
        "spare_quality": final.spare_quality,
        "retired_groups": final.retired_groups,
        "survived": result.survived(min_capacity_fraction=0.5, quality_floor=0.5),
        "faults": faults,
        "plan_digest": plan.digest() if plan is not None else None,
    }


def _population_batch_results(params: dict, seed: int) -> list:
    """Shared body of the population batch points: one vectorized pass
    over the chunk's devices, returning their ``LifetimeResult``s in
    user order (see :func:`population_batch_point` for the params)."""
    from repro.sim.baselines import ALL_BUILDERS
    from repro.sim.batch import SummaryBatch, run_lifetime_batch
    from repro.sim.lifetime import SimConfig

    days = params["days"]
    builder = ALL_BUILDERS[params.get("build", "tlc_baseline")]
    seeds = list(params["workload_seeds"])
    volumes = [
        MobileWorkload(
            WorkloadConfig(mix=mix, days=days, seed=ws)
        ).daily_volume_arrays()
        for mix, ws in zip(params["mixes"], seeds)
    ]
    builds = [builder(params["capacity_gb"]) for _ in volumes]
    plans = None
    if params.get("faults"):
        plans = [
            _fault_plan(build, params["faults"], days, ws)
            for build, ws in zip(builds, seeds)
        ]
    # callers read only each result's ``.final``: sampling every ``days``
    # days takes day 0 and the last day, and skips the 30-day samples'
    # RBER and ECC passes over every group of the chunk
    return run_lifetime_batch(
        builds, SummaryBatch.from_volume_arrays(volumes),
        config=SimConfig(sample_every_days=days), fault_plans=plans,
    )


def population_batch_point(params: dict, seed: int) -> list[float]:
    """One *chunk* of a device population in a single vectorized pass.

    One sweep point simulates ``len(params["mixes"])`` devices through
    :func:`repro.sim.batch.run_lifetime_batch` and returns their
    end-of-life SYS wear fractions in user order.  ``run_sweep`` treats
    the whole batch as one cached point.

    params: ``mixes`` and ``workload_seeds`` (parallel per-device lists),
    ``capacity_gb``, ``days``, optional ``build`` (ALL_BUILDERS key,
    default ``tlc_baseline``) and ``faults`` (plain-data FaultConfig
    mapping; per-device plans are seeded by each device's workload seed).
    """
    return [
        result.final.sys_wear_fraction
        for result in _population_batch_results(params, seed)
    ]


def population_batch_observables(params: dict, seed: int) -> dict:
    """End-of-life observables of one population chunk, as columns.

    Same params and per-device identity as :func:`population_batch_point`
    (the ``wear`` column *is* that function's return, stacked), but every
    final-day observable worth distribution queries comes back as one
    float64/int64 array per column, in user order -- exactly the shape
    the columnar result store packs into compressed blocks.
    """
    results = _population_batch_results(params, seed)
    finals = [result.final for result in results]
    return {
        "wear": np.array([f.sys_wear_fraction for f in finals], dtype=np.float64),
        "spare_wear": np.array(
            [f.spare_wear_fraction for f in finals], dtype=np.float64
        ),
        "capacity_gb": np.array([f.capacity_gb for f in finals], dtype=np.float64),
        "spare_quality": np.array([f.spare_quality for f in finals], dtype=np.float64),
        "retired_groups": np.array([f.retired_groups for f in finals], dtype=np.int64),
        "resuscitated_groups": np.array(
            [f.resuscitated_groups for f in finals], dtype=np.int64
        ),
    }


def population_batch_grid(
    n_users: int,
    days: int,
    capacity_gb: float,
    seed: int,
    mix_weights: dict[str, float],
    chunk: int = 50,
    build: str = "tlc_baseline",
    workload_seed_base: int = 1000,
) -> tuple[dict, ...]:
    """Chunked :func:`population_batch_point` grid for a user population.

    Per-device identity is a function of the *global* device index
    alone: user ``u`` gets workload seed ``workload_seed_base + u`` and
    the mix :func:`assign_mixes` derives for index ``u``, so a population
    reproduces the same per-device wear values regardless of ``chunk``
    (every chunk size slices the identical device list).
    Construction is vectorized per chunk; no per-user python-loop rng
    draws, so million-user grids build in milliseconds.
    """
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    return tuple(
        {
            "mixes": assign_mixes(
                seed, mix_weights, start, min(chunk, n_users - start)
            ),
            "workload_seeds": list(
                range(workload_seed_base + start,
                      workload_seed_base + min(start + chunk, n_users))
            ),
            "capacity_gb": capacity_gb,
            "days": days,
            "build": build,
        }
        for start in range(0, n_users, chunk)
    )


def ftl_population_observables(params: dict, seed: int) -> dict:
    """End-of-life observables of one population chunk at FTL fidelity.

    The page-level sibling of :func:`population_batch_observables`: the
    same params (``mixes``/``workload_seeds`` parallel per-device lists,
    ``capacity_gb``, ``days``) and the same per-device identity
    convention, but each device is replayed through the page-mapped FTL
    (:func:`repro.ftl.replay.replay` on the analytic chip fast path)
    instead of the epoch-level lifetime model.  Devices are independent
    and each is a pure function of its own ``(mix, days, capacity_gb,
    workload_seed)``, so any chunking of a population produces
    bit-identical columns.

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


def ftl_population_point(params: dict, seed: int) -> list[float]:
    """Per-device mean wear of one FTL-fidelity population chunk.

    Same params and identity as :func:`ftl_population_observables`;
    returns just the ``wear`` column as a list (the sweep-point shape
    ``run_sweep`` caches for scalar grids).
    """
    return ftl_population_observables(params, seed)["wear"].tolist()


def sensitivity_batch_point(params: dict, seed: int) -> list[dict]:
    """One PLC-PEC row of the A6 calibration-sensitivity grid: every WAF
    column in one batch.

    params: ``plc_pec``, ``wafs``, ``capacity_gb``, ``mix``, ``days``,
    ``workload_seed``.  The PLC endurance-table override is global state,
    applied and restored inside the point, so only devices sharing a
    ``plc_pec`` can batch together; WAF varies per device (the one spec
    field :func:`repro.sim.batch.run_lifetime_batch` allows to differ).
    Returns one dict per WAF, in ``params["wafs"]`` order: ``plc_pec``,
    ``waf``, ``usable``, ``capacity_fraction``, ``sys_wear``,
    ``quality`` and ``carbon_ok``.
    """
    from repro.flash.cell import CellTechnology
    from repro.flash.reliability import ENDURANCE_TABLE
    from repro.sim.baselines import build_sos, build_tlc_baseline
    from repro.sim.batch import BatchPartition, SummaryBatch, run_lifetime_batch

    capacity = params["capacity_gb"]
    wafs = list(params["wafs"])
    volumes = MobileWorkload(
        WorkloadConfig(
            mix=params["mix"], days=params["days"], seed=params["workload_seed"]
        )
    ).daily_volume_arrays()
    original = ENDURANCE_TABLE[CellTechnology.PLC]
    ENDURANCE_TABLE[CellTechnology.PLC] = dataclasses.replace(
        original, rated_pec=params["plc_pec"]
    )
    try:
        builds = []
        for waf in wafs:
            build = build_sos(capacity)
            # a partition's WAF is state, not just spec: a fresh partition
            # made from the swept spec carries it into the engine
            partitions = build.device.partitions
            for name, part in partitions.items():
                partitions[name] = BatchPartition(
                    dataclasses.replace(part.spec, waf=waf), 1
                )
            builds.append(build)
        results = run_lifetime_batch(
            builds, SummaryBatch.from_volume_arrays([volumes] * len(wafs))
        )
        tlc = build_tlc_baseline(capacity)
        out = []
        for waf, build, result in zip(wafs, builds, results):
            capacity_fraction = result.final.capacity_gb / capacity
            out.append(
                {
                    "plc_pec": params["plc_pec"],
                    "waf": waf,
                    # usable = acceptable media quality and bounded
                    # capacity loss; §4.3's resuscitation makes capacity
                    # shrink the *designed* response at pessimistic
                    # calibrations
                    "usable": result.final.spare_quality >= 0.85
                    and capacity_fraction >= 0.75,
                    "capacity_fraction": capacity_fraction,
                    "sys_wear": result.final.sys_wear_fraction,
                    "quality": result.final.spare_quality,
                    "carbon_ok": build.intensity_kg_per_gb < tlc.intensity_kg_per_gb,
                }
            )
        return out
    finally:
        ENDURANCE_TABLE[CellTechnology.PLC] = original
