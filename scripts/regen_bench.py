"""Regenerate the checked-in ``BENCH_runner.json`` perf baseline.

Runs the recorded sweeps in one process and writes a single
``repro.runner.bench/v2`` payload:

* ``cli-lifetime`` -- the 4-build lifetime comparison behind
  ``repro lifetime`` (the original baseline entry);
* ``cli-population-batch`` -- a 200-device population through the fleet
  layer (sharded, batched, streaming-reduced), as ``repro population``
  runs it;
* ``runner-scaling`` (twice: ``jobs=1``, then ``jobs=2``) -- the small
  A6-style sensitivity grid that ``benchmarks/test_bench_runner_scaling.py``
  checks, serial vs fanned out; the regeneration aborts unless both
  runs return identical points;
* ``fleet-scaling-{1k,10k,100k,1m}`` -- the fleet-of-fleets scaling
  curve: 1k to 1M devices at 90 days each, sharded per the recipe in
  EXPERIMENTS.md.  Memory stays shard-bounded throughout (the 1M run is
  reduced to a mergeable wear histogram, never materialized), so the
  curve should stay ~linear in device count.

A top-level ``store`` section additionally records the column store's
size and scan throughput for a cached 10k-device fleet against the
pickle-per-point counterfactual (one framed pickle per device, the
cache granularity of one sweep point per device) -- the ``>= 5x``
smaller claim, as a number.

A top-level ``ftl_bench`` section records the page-level FTL's perf
claims: single-device replay throughput on the bit-exact chip (the
``scalar`` row: real page bytes, each page programmed, read and migrated
one at a time) vs the analytic chip (the ``vectorized`` row: array
book-keeping only), both running the same batched host ops through the
one FTL write path and picking GC victims with the one production
selector (the ``>= 5x`` replay speedup, with an equivalence
self-check -- both paths must land identical ``FtlStats``), and the
first FTL fleet-scaling curve (``ftl-scaling-{10,50,200}`` sweeps,
devices/s at 90 days each).

The scaling rows record the sharding throughput as part of the perf
trajectory: compare ``total_wall_s`` across sweeps.

Usage::

    PYTHONPATH=src python scripts/regen_bench.py [BENCH_runner.json]
"""

from __future__ import annotations

import pickle
import sys
import tempfile
import time
from pathlib import Path

from repro.flash.chip import DAYS_PER_YEAR
from repro.fleet import DEFAULT_MIX_WEIGHTS, FleetPlan, run_fleet
from repro.runner import Sweep, run_sweep, write_bench_json
from repro.runner.cache import ResultCache
from repro.runner.record import frame_record
from repro.store import ColumnStore
from repro.runner.points import lifetime_point, sensitivity_batch_point
from repro.sim.baselines import ALL_BUILDERS

POPULATION_USERS = 200
POPULATION_YEARS = 2.5
POPULATION_CHUNK = 50

#: the runner-scaling grid: one batched A6 row per PLC-PEC point
RUNNER_SCALING_GRID = tuple(
    {"plc_pec": plc_pec, "wafs": [1.5, 3.5], "capacity_gb": 64.0,
     "mix": "typical", "days": DAYS_PER_YEAR, "workload_seed": 111}
    for plc_pec in (300, 700)
)

#: the 1k -> 1M scaling curve: (label, devices, shard_size, chunk).
#: Shard sizes keep each sweep at <= 20 cache/restart units; chunk is
#: the vectorization width (peak working set ~ chunk x partitions).
FLEET_DAYS = 90
FLEET_SCALING = (
    ("fleet-scaling-1k", 1_000, 250, 250),
    ("fleet-scaling-10k", 10_000, 2_500, 500),
    ("fleet-scaling-100k", 100_000, 5_000, 1_000),
    ("fleet-scaling-1m", 1_000_000, 50_000, 1_000),
)

#: the store size/throughput comparison: the fleet-scaling-10k plan,
#: run once more *with* a cache so observables land in columns.rcs
STORE_BENCH_DEVICES = 10_000

#: the FTL replay benchmark horizon and scaling curve:
#: (label, devices, shard_size, chunk) at FTL_REPLAY_DAYS each
FTL_REPLAY_DAYS = 90
FTL_SCALING = (
    ("ftl-scaling-10", 10, 5, 5),
    ("ftl-scaling-50", 50, 25, 25),
    ("ftl-scaling-200", 200, 50, 50),
)


def runner_scaling(results: list) -> None:
    """The runner-scaling grid serially, then with ``jobs=2``.

    The fan-out is only worth timing if it is also correct: the two
    runs must return identical points or the regeneration aborts.
    """
    sweep = Sweep(name="runner-scaling", fn=sensitivity_batch_point,
                  grid=RUNNER_SCALING_GRID, base_seed=111)
    serial = run_sweep(sweep, jobs=1)
    parallel = run_sweep(sweep, jobs=2)
    if serial.values() != parallel.values():
        raise AssertionError("parallel sweep diverged from serial")
    results += [serial, parallel]
    print(f"runner-scaling: serial {serial.total_wall_s:.2f} s vs jobs=2 "
          f"{parallel.total_wall_s:.2f} s")


def ftl_bench(results: list) -> dict:
    """FTL replay throughput (bit-exact vs analytic) + fleet curve.

    The ``scalar`` row replays on the bit-exact chip (page bytes, one
    page at a time inside each batched host op), the ``vectorized`` row
    on the analytic chip (one array update per open-block run); both
    place pages through the one FTL write path and select GC victims with
    the one production selector.  Best-of-3 per
    path so one scheduler hiccup can't misstate the speedup; the two
    paths must agree on ``FtlStats`` exactly or the regeneration aborts
    (the perf claim is only meaningful if the fast path is also the
    *correct* path).
    """
    from repro.ftl.replay import FtlReplayConfig, replay

    modes = {
        "scalar": dict(analytic=False),
        "vectorized": dict(analytic=True),
    }
    best: dict[str, object] = {}
    for label, flags in modes.items():
        runs = [
            replay(FtlReplayConfig(days=FTL_REPLAY_DAYS, seed=3, **flags))
            for _ in range(3)
        ]
        best[label] = max(runs, key=lambda r: r.ops_per_s)
    if best["scalar"].stats != best["vectorized"].stats:
        raise AssertionError("analytic fast path diverged from bit-exact")
    speedup = best["vectorized"].ops_per_s / best["scalar"].ops_per_s
    print(f"ftl replay ({FTL_REPLAY_DAYS} days): "
          f"scalar {best['scalar'].ops_per_s:,.0f} ops/s, "
          f"vectorized {best['vectorized'].ops_per_s:,.0f} ops/s "
          f"({speedup:.1f}x, stats identical)")

    curve = []
    for label, devices, shard_size, chunk in FTL_SCALING:
        plan = FleetPlan(n_devices=devices, days=FTL_REPLAY_DAYS,
                         capacity_gb=64.0, seed=606,
                         mix_weights=DEFAULT_MIX_WEIGHTS,
                         shard_size=shard_size, chunk=chunk,
                         fidelity="ftl")
        fleet = run_fleet(plan, jobs=1, name=label)
        results.append(fleet.sweep)
        wall = fleet.sweep.total_wall_s
        curve.append({
            "label": label, "devices": devices, "days": FTL_REPLAY_DAYS,
            "shard_size": shard_size, "chunk": chunk,
            "wall_s": wall,
            "devices_per_s": round(devices / wall, 2) if wall else None,
            "p99_wear": fleet.wear.quantile(0.99),
        })
        print(f"{label}: {devices} devices x {FTL_REPLAY_DAYS} days in "
              f"{wall:.1f} s ({devices / wall:,.1f} devices/s)")
    return {
        "replay_days": FTL_REPLAY_DAYS,
        "replay_host_ops": best["vectorized"].host_ops,
        "scalar_ops_per_s": round(best["scalar"].ops_per_s),
        "vectorized_ops_per_s": round(best["vectorized"].ops_per_s),
        "replay_speedup": round(speedup, 2),
        "stats_identical": True,
        "scaling": curve,
    }


def store_bench() -> dict:
    """Column store vs pickle-per-point for a 10k-device fleet.

    The counterfactual is one sweep point per device: one framed pickle
    per device holding that device's observables.  The
    store side is the real artifact a cached fleet run leaves behind
    (``columns.rcs``, compacted), and the scan number is a cold
    off-disk quantile query over every device's wear.
    """
    plan = FleetPlan(
        n_devices=STORE_BENCH_DEVICES, days=FLEET_DAYS, capacity_gb=64.0,
        seed=606, mix_weights=DEFAULT_MIX_WEIGHTS, shard_size=2_500, chunk=500,
    )
    with tempfile.TemporaryDirectory(prefix="store-bench-") as cache_dir:
        run_fleet(plan, jobs=1, cache_dir=cache_dir, name="store-bench")
        store_path = Path(cache_dir) / ResultCache.STORE_FILE
        raw_bytes = store_path.stat().st_size
        store = ColumnStore(store_path)
        store.compact()
        compacted_bytes = store_path.stat().st_size

        # pickle-per-point counterfactual, from the same observables
        baseline_bytes = 0
        devices = 0
        columns: dict[str, list] = {}
        for _, name, arr in store.scan():
            columns.setdefault(name, []).append(arr)
        per_column = {
            name: [v for part in parts for v in part.tolist()]
            for name, parts in columns.items()
        }
        for i in range(STORE_BENCH_DEVICES):
            value = {name: vals[i] for name, vals in per_column.items()}
            baseline_bytes += len(
                frame_record(pickle.dumps({"value": value, "wall_s": 0.0}))
            )
            devices += 1

        # cold off-disk scan: every device's wear out of the block index
        cold = ColumnStore(store_path, mode="read")
        start = time.perf_counter()
        wear = cold.column_values("obs.wear")
        scan_s = time.perf_counter() - start
        assert len(wear) == STORE_BENCH_DEVICES
        return {
            "devices": devices,
            "days": FLEET_DAYS,
            "codec": store.codec,
            "store_bytes": raw_bytes,
            "compacted_bytes": compacted_bytes,
            "pickle_per_point_bytes": baseline_bytes,
            "size_ratio": round(baseline_bytes / compacted_bytes, 2),
            "scan_wall_s": scan_s,
            "scan_values_per_s": round(len(wear) / scan_s) if scan_s else None,
        }


def main(path: str) -> int:
    lifetime_sweep = Sweep(
        name="cli-lifetime",
        fn=lifetime_point,
        grid=tuple(
            {"build": name, "capacity_gb": 64.0, "mix": "typical",
             "days": 3 * DAYS_PER_YEAR, "workload_seed": 7}
            for name in ALL_BUILDERS
        ),
        base_seed=7,
    )
    days = int(POPULATION_YEARS * DAYS_PER_YEAR)
    population_plan = FleetPlan(
        n_devices=POPULATION_USERS, days=days, capacity_gb=64.0, seed=606,
        mix_weights=DEFAULT_MIX_WEIGHTS,
        shard_size=POPULATION_CHUNK, chunk=POPULATION_CHUNK,
    )

    results = []
    outcome = run_sweep(lifetime_sweep, jobs=1)
    results.append(outcome)
    print(f"{lifetime_sweep.name}: {len(outcome.points)} points, "
          f"{outcome.total_wall_s:.2f} s")

    fleet = run_fleet(population_plan, jobs=1, name="cli-population-batch")
    results.append(fleet.sweep)
    print(f"cli-population-batch: {fleet.sweep.total_wall_s:.2f} s "
          f"({POPULATION_USERS} devices, {days} days)")

    runner_scaling(results)

    for label, devices, shard_size, chunk in FLEET_SCALING:
        plan = FleetPlan(n_devices=devices, days=FLEET_DAYS,
                         capacity_gb=64.0, seed=606,
                         mix_weights=DEFAULT_MIX_WEIGHTS,
                         shard_size=shard_size, chunk=chunk)
        fleet = run_fleet(plan, jobs=1, name=label)
        results.append(fleet.sweep)
        wall = fleet.sweep.total_wall_s
        print(f"{label}: {devices} devices x {FLEET_DAYS} days in "
              f"{wall:.1f} s ({devices / wall:,.0f} devices/s, "
              f"{plan.n_shards} shards of {shard_size}, "
              f"{'exact' if plan.exact else 'histogram'} reduction, "
              f"p99 wear {fleet.wear.quantile(0.99):.4f})")

    store = store_bench()
    print(f"store: {store['devices']} devices -> "
          f"{store['compacted_bytes']:,} bytes compacted "
          f"({store['codec']}), pickle-per-point "
          f"{store['pickle_per_point_bytes']:,} bytes, "
          f"{store['size_ratio']:.1f}x smaller; wear scan "
          f"{store['scan_values_per_s']:,} values/s")

    ftl = ftl_bench(results)

    write_bench_json(
        path, results, notes="scripts/regen_bench.py",
        extras={"store": store, "ftl_bench": ftl},
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else str(
        Path(__file__).resolve().parent.parent / "BENCH_runner.json"
    )
    sys.exit(main(target))
