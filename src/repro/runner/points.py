"""Picklable sweep-point functions for the sweep-shaped experiments.

Worker processes unpickle point functions by module reference, so every
function the runner fans out must live at module scope in an importable
module.  This module hosts the point functions behind the CLI
``lifetime`` command and the sweep-shaped benchmarks (A2 split sweep,
A3 threshold sweep, A6 sensitivity grid, A9 fault ablation).  Device
populations are not sweep points here: they run as fleet shards
(:mod:`repro.fleet`).

Each function takes ``(params, seed)``: ``params`` is the plain-data
grid point, ``seed`` is the runner-derived per-point seed.  Experiments
that pin their own workload seeds (to reproduce published tables) carry
them in ``params`` and ignore the derived seed.
"""

from __future__ import annotations

import dataclasses

from repro.workloads.mobile import MobileWorkload, WorkloadConfig

__all__ = [
    "lifetime_point",
    "split_point",
    "threshold_point",
    "sensitivity_batch_point",
    "fault_ablation_point",
]


def _volumes(mix: str, days: int, seed: int):
    return MobileWorkload(WorkloadConfig(mix=mix, days=days, seed=seed)).daily_volume_arrays()


def lifetime_point(params: dict, seed: int):
    """One (build, workload) lifetime run; the CLI ``lifetime`` point.

    params: ``build`` (key into ALL_BUILDERS), ``capacity_gb``, ``mix``,
    ``days``, ``workload_seed`` (optional; the derived seed otherwise),
    ``faults`` (optional plain-data :class:`FaultConfig` mapping; omitted
    or all-zero means the exact fault-free run).
    Returns the :class:`~repro.sim.lifetime.LifetimeResult`.
    """
    from repro.faults.plan import plan_for_build
    from repro.sim.baselines import ALL_BUILDERS
    from repro.sim.engine import run_lifetime

    workload_seed = params.get("workload_seed")
    volumes = _volumes(
        params["mix"], params["days"], seed if workload_seed is None else workload_seed
    )
    build = ALL_BUILDERS[params["build"]](params["capacity_gb"])
    plan = plan_for_build(build, params.get("faults"), params["days"], seed)
    return run_lifetime(build, volumes, fault_plan=plan)


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
    volumes = _volumes(params["mix"], params["days"], params["workload_seed"])
    tlc = build_tlc_baseline(params["capacity_gb"])
    build = build_sos(params["capacity_gb"], spare_fraction=fraction)
    result = run_lifetime(build, volumes)
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
    from repro.faults.plan import plan_for_build
    from repro.sim.baselines import build_sos
    from repro.sim.engine import run_lifetime

    scale = params["fault_scale"]
    volumes = _volumes(params["mix"], params["days"], params["workload_seed"])
    build = build_sos(params["capacity_gb"])
    plan = plan_for_build(
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
    result = run_lifetime(build, volumes, fault_plan=plan)
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
    volumes = _volumes(params["mix"], params["days"], params["workload_seed"])
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
        end = run_lifetime_batch(
            builds, SummaryBatch.from_volume_arrays([volumes] * len(wafs))
        )
        tlc = build_tlc_baseline(capacity)
        out = []
        for waf, build, device_capacity, quality, sys_wear in zip(
            wafs,
            builds,
            end.capacity_gb.tolist(),
            end.spare_quality.tolist(),
            end.sys_wear_fraction.tolist(),
        ):
            capacity_fraction = device_capacity / capacity
            out.append(
                {
                    "plc_pec": params["plc_pec"],
                    "waf": waf,
                    # usable = acceptable media quality and bounded
                    # capacity loss; §4.3's resuscitation makes capacity
                    # shrink the *designed* response at pessimistic
                    # calibrations
                    "usable": quality >= 0.85 and capacity_fraction >= 0.75,
                    "capacity_fraction": capacity_fraction,
                    "sys_wear": sys_wear,
                    "quality": quality,
                    "carbon_ok": build.intensity_kg_per_gb < tlc.intensity_kg_per_gb,
                }
            )
        return out
    finally:
        ENDURANCE_TABLE[CellTechnology.PLC] = original
