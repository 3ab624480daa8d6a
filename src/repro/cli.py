"""Command-line interface to the SOS reproduction.

Usage::

    python -m repro.cli <command> [options]

Commands
--------
``density``
    The §4.1/§4.2 density and carbon arithmetic for a given split.
``project``
    The 2021->2030 flash carbon projection (E2).
``market``
    Figure 1 market shares and fleet replacement churn (E1/E14).
``credits``
    Carbon-credit surcharge on flash prices (E4).
``lifetime``
    Run the lifetime engine: SOS vs baselines for a mix/years (E11).
``population``
    Simulate a device population through the sharded fleet-of-fleets
    layer (batch engine x sweep coordinator) and report the wear
    distribution (E16); scales to millions of devices with
    shard-bounded memory.
``classify``
    Train the classifiers on a fresh synthetic corpus and report their
    operating points (E9).
``serve``
    Run the simulation-as-a-service gateway: admission control, quotas,
    backpressure, health-monitored job execution (see ``repro.serve``).
``submit``
    Submit a population/sweep job to a running gateway; optionally wait
    for its terminal state.
``jobs``
    List, inspect, cancel gateway jobs, or poll gateway health.
``faults selftest``
    Deterministic fault-plan replay and crash-containment smoke test.
``chaos labels|target|matrix``
    Infrastructure chaos: list the crash-point registry, run one
    deterministic matrix target, or run the full crash matrix
    (kill-at-every-label, assert bit-identical resume; see
    ``repro.chaos``).
``obs report``
    Render span timings, top counters, and event totals from a run
    directory produced by ``lifetime --trace/--metrics-json``.
``store inspect|scan|compact``
    Columnar result store (``columns.rcs``) utilities: header/index
    stats and integrity verification, off-disk column scans with
    distribution quantiles, and live-entry compaction (see
    ``repro.store``).
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.reporting import format_table

__all__ = ["main"]

# Copies of library values, so that building the parser loads neither
# numpy (``repro.chaos`` and the simulation do) nor the service
# (``repro.serve``); the CLI tests pin each to its home.

#: ``--build`` choices of ``population`` and ``submit``: the keys of
#: ``repro.sim.baselines.ALL_BUILDERS``
_BUILDS = ("tlc_baseline", "qlc_baseline", "plc_naive", "sos")

#: ``lifetime --mix`` choices: the keys of ``repro.workloads.apps.USER_MIXES``
_MIXES = ("light", "typical", "heavy", "adversarial")

#: ``--durability`` choices: ``repro.chaos.fs.DURABILITY_LEVELS``
_DURABILITY_LEVELS = ("none", "rename", "fsync")

#: ``store compact --codec`` choices: ``repro.store.format.CODECS``
_CODECS = ("none", "zlib", "lzma")

#: the address ``serve`` listens on and ``submit`` and ``jobs`` reach by
#: default; the host is ``GatewayConfig.host``'s default
_GATEWAY_ADDRESS = ("127.0.0.1", 9178)

#: the ``run_sweep``/``run_fleet`` keywords the runner flags name
_RUNNER_KEYS = ("jobs", "cache_dir", "retries", "timeout_s", "keep_going",
                "durability")


def _set_flags(args: argparse.Namespace, keys) -> dict:
    """The flags among ``keys`` (``dest`` names) that the command line
    set: each defaults to ``argparse.SUPPRESS``, so an unset one is left
    out and the callee's own default applies."""
    return {key: getattr(args, key) for key in keys if hasattr(args, key)}


def _cmd_density(args: argparse.Namespace) -> None:
    from repro.carbon.embodied import intensity_kg_per_gb, mixed_intensity_kg_per_gb
    from repro.core.config import DEFAULT_SPARE_FRACTION, cell_mix, default_config
    from repro.core.partitions import capacity_gain_over, density_gain
    from repro.flash.cell import CellTechnology

    fraction = DEFAULT_SPARE_FRACTION if args.spare_fraction is None else args.spare_fraction
    config = default_config(spare_fraction=fraction)
    sos = mixed_intensity_kg_per_gb(cell_mix(fraction))
    tlc = intensity_kg_per_gb(CellTechnology.TLC)
    rows = [
        ["mean operating bits/cell", f"{config.mean_operating_bits:.2f}"],
        ["density gain vs TLC", f"{density_gain(config) * 100:.1f}%"],
        ["capacity gain vs QLC",
         f"{capacity_gain_over(config, CellTechnology.QLC) * 100:.1f}%"],
        ["embodied intensity", f"{sos:.4f} kg CO2e/GB"],
        ["carbon reduction vs TLC", f"{(1 - sos / tlc) * 100:.1f}%"],
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"SOS split: {fraction:.0%} SPARE"))


def _cmd_project(args: argparse.Namespace) -> None:
    from repro.carbon.projection import ProjectionConfig, project

    points = project(ProjectionConfig(**_set_flags(args, ("bit_growth_rate",))))
    rows = [
        [p.year, f"{p.capacity_eb:.0f}", f"{p.emissions_mt:.0f}",
         f"{p.people_equivalent_millions:.0f}"]
        for p in points
    ]
    print(format_table(
        ["year", "capacity (EB)", "emissions (Mt CO2e)", "people-equiv (M)"],
        rows, title="Flash production carbon projection"))


def _cmd_market(args: argparse.Namespace) -> None:
    from repro.carbon.fleet import FleetConfig, simulate_fleet
    from repro.carbon.market import MARKET_SHARE_2020

    outcome = simulate_fleet(FleetConfig())
    rows = [
        [c.name, f"{MARKET_SHARE_2020[c.name] * 100:.0f}%",
         f"{c.replacement_multiplier:.1f}x", f"{c.embodied_mt:.0f}"]
        for c in outcome.classes
    ]
    print(format_table(
        ["class", "bit share (Fig 1)", "capacity rebuilt / decade",
         "embodied Mt CO2e / decade"],
        rows, title="Flash market and replacement churn"))
    print(f"\npersonal devices: {outcome.personal_bit_share() * 100:.0f}% of "
          f"manufactured bits, rebuilt "
          f"{outcome.personal_replacement_multiplier():.1f}x per decade")


def _cmd_credits(args: argparse.Namespace) -> None:
    from repro.carbon.credits import CarbonPrice, credit_cost_per_tb, price_increase_fraction
    from repro.carbon.embodied import intensity_kg_per_gb
    from repro.flash.cell import CellTechnology

    price = CarbonPrice(usd_per_tonne=args.price)
    rows = []
    for tech in (CellTechnology.TLC, CellTechnology.QLC, CellTechnology.PLC):
        intensity = intensity_kg_per_gb(tech)
        cost = credit_cost_per_tb(price, intensity)
        rows.append([tech.name, f"${cost:.2f}",
                     f"{cost / args.ssd_price * 100:.1f}%"])
    print(format_table(
        ["technology", "credit $/TB", f"vs ${args.ssd_price:.0f}/TB price"],
        rows, title=f"Carbon credits at ${args.price:.0f}/tonne"))
    headline = price_increase_fraction(price, args.ssd_price)
    print(f"\nbaseline-intensity surcharge: {headline * 100:.1f}% of the drive price")


def _run_exit_code(completed: int, failed: int) -> int:
    """Exit code of a ``--keep-going`` run: 0 ok, 1 partial, 2 all failed.

    Scripts and CI gate on this: a run that silently dropped points must
    not exit 0, and a run that produced *nothing* is distinguishable
    from one that merely degraded.
    """
    if failed == 0:
        return 0
    return 1 if completed > 0 else 2


def _cmd_lifetime(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from repro.obs import (
        merge_snapshots,
        observed,
        write_metrics_json,
        write_trace_jsonl,
    )
    from repro.runner import Sweep, run_sweep, write_bench_json
    from repro.runner.points import lifetime_point
    from repro.sim.baselines import ALL_BUILDERS

    if not args.capacity_gb > 0.0:
        args.usage_error("--capacity-gb must be positive")  # exits 2
    if args.years < 1:
        args.usage_error("--years must be at least 1")
    grid = tuple(
        {
            "build": name,
            "capacity_gb": args.capacity_gb,
            "mix": args.mix,
            "days": _days(args.years),
            "workload_seed": args.seed,
        }
        for name in ALL_BUILDERS
    )
    sweep = Sweep(name="cli-lifetime", fn=lifetime_point, grid=grid, base_seed=args.seed)
    collect = bool(args.trace or args.metrics_json)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        with observed(trace=False) if collect else nullcontext() as coordinator_obs:
            outcome = run_sweep(
                sweep, collect_obs=collect, **_set_flags(args, _RUNNER_KEYS)
            )
    finally:
        if profiler is not None:
            profiler.disable()
    if args.profile:
        profiler.dump_stats(args.profile)
        print(f"wrote cProfile stats to {args.profile} "
              "(inspect: python -m pstats)")
    if collect:
        merged = outcome.merged_metrics()
        snapshots = [coordinator_obs.registry.snapshot()]
        if merged is not None:
            snapshots.append(merged)
        merged = merge_snapshots(*snapshots)
        if args.metrics_json:
            write_metrics_json(
                args.metrics_json, merged,
                context={"sweep": sweep.name, "jobs": outcome.jobs,
                         "seed": args.seed, "mix": args.mix},
            )
            print(f"wrote merged metrics to {args.metrics_json}")
        if args.trace:
            count = write_trace_jsonl(args.trace, outcome.merged_trace())
            print(f"wrote {count} trace events to {args.trace}")
    rows = []
    for point in outcome.points:
        result = point.value
        final = result.final
        rows.append([
            point.params["build"], f"{result.embodied_kg:.2f}",
            f"{final.sys_wear_fraction * 100:.1f}%",
            f"{final.spare_quality:.3f}", f"{final.capacity_gb:.1f}",
            "yes" if result.survived() else "degraded",
        ])
    print(format_table(
        ["device", "embodied kg", "worst wear", "media quality",
         "capacity left (GB)", f"healthy at {args.years}y"],
        rows,
        title=f"{args.capacity_gb:.0f} GB, {args.years}y, '{args.mix}' mix"))
    if args.bench_json:
        write_bench_json(args.bench_json, [outcome], notes="repro.cli lifetime")
        print(f"\nwrote per-point timings to {args.bench_json}")
    if outcome.errors:
        print(f"\n{len(outcome.errors)} point(s) failed:")
        for err in outcome.errors:
            print(f"  [{err.kind}] {err.params.get('build', err.index)}: "
                  f"{err.message} ({err.attempts} attempt(s))")
    return _run_exit_code(len(outcome.points), len(outcome.errors))


def _cmd_population(args: argparse.Namespace) -> int:
    """``repro population``: sharded fleet run over a device population.

    The population is cut into ``--shard-size``-device shards; each
    shard runs as one fault-tolerant, cached sweep point that steps its
    devices through the batched fleet engine in ``--chunk``-device
    vectorized passes, and its wear column folds into a mergeable wear
    digest, so peak memory follows the shard size even at
    ``--devices 1000000``.  A plan ``FleetPlan`` rejects (say
    ``--fidelity ftl --build sos``) is a usage error: exit code 2.
    """
    import resource

    from repro.fleet import WEAR_BIN_WIDTH, FleetPlan, run_fleet
    from repro.runner import write_bench_json

    try:
        plan = FleetPlan.from_params(_population_params(args))
    except ValueError as err:
        args.usage_error(str(err))  # exits 2, as argparse's own errors do
    fleet = run_fleet(
        plan, name="cli-population-batch", **_set_flags(args, _RUNNER_KEYS)
    )
    stats = fleet.summary()
    # ru_maxrss is KiB on linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    kind = "" if stats["exact"] else f" (est. +-{WEAR_BIN_WIDTH:.3f})"
    rows = [
        ["devices", f"{stats['devices']} ({stats['shards']} shard(s) of <= "
                    f"{plan.shard_size}, chunk {plan.chunk})"],
        ["median wear", f"{stats['median'] * 100:.1f}%{kind}"],
        ["p90 wear", f"{stats['p90'] * 100:.1f}%{kind}"],
        ["p99 wear", f"{stats['p99'] * 100:.1f}%{kind}"],
        ["max wear", f"{stats['max'] * 100:.1f}%"],
        ["worn out before disposal", f"{stats['worn_out_fraction'] * 100:.1f}%"],
        ["quantile mode", "exact" if stats["exact"] else "histogram estimate"],
        ["fleet wall time", f"{stats['wall_s']:.2f} s"],
        ["coordinator peak RSS", f"{peak_rss_mb:.0f} MB"],
    ]

    print(format_table(
        ["metric", "value"], rows,
        title=f"{plan.n_devices} x {plan.capacity_gb:.0f} GB '{plan.build}' "
              f"devices, {args.years}y service life"))
    storage = stats["storage"]  # empty without --cache-dir
    if any(storage.get(key) for key in (
            "passthrough", "store_errors",
            "corrupt_quarantined", "invalid_payloads")):
        detail = ", ".join(
            f"{key}={value}" for key, value in storage.items()
            if key != "durability"
        )
        print(f"\nWARNING: result cache degraded ({detail}); "
              "fleet completed read-through")
    if args.bench_json:
        write_bench_json(args.bench_json, [fleet.sweep], notes="repro.cli population")
        print(f"\nwrote per-point timings to {args.bench_json}")
    if fleet.sweep.errors:
        print(f"\n{len(fleet.sweep.errors)} shard(s) failed "
              f"({stats['missing_devices']} of {stats['requested_devices']} "
              "device(s) missing from the distribution):")
        for err in fleet.sweep.errors:
            print(f"  [{err.kind}] shard @{err.params.get('start', err.index)}: "
                  f"{err.message} ({err.attempts} attempt(s))")
        return _run_exit_code(
            len(fleet.sweep.points), len(fleet.sweep.errors)
        )
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    """``repro faults selftest``: deterministic fault-plan replay smoke.

    Four checks, each cheap enough for CI:

    1. plan determinism -- identical (config, seed, horizon, targets)
       generates an identical event log and digest;
    2. zero-rate transparency -- an all-zero-rate plan leaves the
       lifetime engine bit-identical to running with no plan at all;
    3. schedule replay -- serial and 2-worker sweeps over the same
       faulty grid report identical fault counters;
    4. crash containment -- a sweep with one crashing worker finishes
       under ``--keep-going`` with every healthy point completed and the
       crasher reported as a structured error.
    """
    import tempfile

    from repro.faults import FaultConfig, FaultPlan
    from repro.runner import Sweep, run_sweep
    from repro.runner.faultfns import crash_point
    from repro.runner.points import lifetime_point
    from repro.sim.baselines import build_tlc_baseline
    from repro.sim.engine import run_lifetime
    from repro.workloads.mobile import MobileWorkload, WorkloadConfig

    failures: list[str] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
        if not ok:
            failures.append(name)

    print("fault-injection selftest")
    config = FaultConfig(
        block_infant_mortality=0.05,
        transient_read_rate=0.4,
        power_loss_rate=0.1,
        cloud_outage_rate=0.05,
    )
    targets = {"main": 8}
    plans = [
        FaultPlan.generate(config, seed=args.seed, horizon_days=180, targets=targets)
        for _ in range(2)
    ]
    check(
        "plan determinism",
        plans[0].digest() == plans[1].digest()
        and plans[0].event_log() == plans[1].event_log(),
        f"{len(plans[0])} events, digest {plans[0].digest()[:12]}",
    )

    volumes = MobileWorkload(
        WorkloadConfig(mix="typical", days=180, seed=args.seed)
    ).daily_volume_arrays()
    zero_plan = FaultPlan.generate(
        FaultConfig(), seed=args.seed, horizon_days=180, targets=targets
    )
    bare = run_lifetime(build_tlc_baseline(32.0), volumes)
    gated = run_lifetime(build_tlc_baseline(32.0), volumes, fault_plan=zero_plan)
    check(
        "zero-rate transparency",
        bare.final == gated.final and gated.faults.total_events == 0,
        f"end state after day {bare.final.day} compared",
    )

    faults = {"block_infant_mortality": 0.05, "transient_read_rate": 0.4,
              "power_loss_rate": 0.1, "cloud_outage_rate": 0.05}
    grid = tuple(
        {"build": "tlc_baseline", "capacity_gb": 32.0, "mix": "typical", "days": 180,
         "workload_seed": args.seed + i, "faults": faults}
        for i in range(3)
    )
    sweep = Sweep(name="faults-selftest", fn=lifetime_point, grid=grid,
                  base_seed=args.seed)
    serial = run_sweep(sweep, jobs=1)
    parallel = run_sweep(sweep, jobs=2)
    serial_counters = [p.value.faults.as_dict() for p in serial.points]
    parallel_counters = [p.value.faults.as_dict() for p in parallel.points]
    total_events = sum(p.value.faults.total_events for p in serial.points)
    check(
        "serial == parallel replay",
        serial_counters == parallel_counters and total_events > 0,
        f"{total_events} fault events",
    )

    with tempfile.TemporaryDirectory() as tmp:
        crash_grid = tuple(
            {"index": i, "crash": i == 1} for i in range(3)
        )
        crash_sweep = Sweep(name="faults-selftest-crash", fn=crash_point,
                            grid=crash_grid, base_seed=args.seed)
        outcome = run_sweep(crash_sweep, jobs=2, cache_dir=tmp, keep_going=True)
        check(
            "crash containment",
            len(outcome.points) == 2
            and len(outcome.errors) == 1
            and outcome.errors[0].kind == "crash"
            and outcome.errors[0].index == 1,
            f"{len(outcome.points)} ok, {len(outcome.errors)} error(s), "
            f"{outcome.pool_rebuilds} pool rebuild(s)",
        )

    if failures:
        print(f"selftest FAILED: {', '.join(failures)}")
        return 1
    print("selftest passed")
    return 0


def _cmd_chaos_labels(args: argparse.Namespace) -> int:
    """``repro chaos labels``: the closed crash-point registry."""
    from repro.chaos import CRASH_POINTS, MATRIX_TARGETS

    covered = {
        label: sorted(t for t, labels in MATRIX_TARGETS.items() if label in labels)
        for label in CRASH_POINTS
    }
    rows = [
        [label, ", ".join(covered[label]) or "(uncovered)"]
        for label in CRASH_POINTS
    ]
    print(format_table(["crash point", "matrix target(s)"], rows,
                       title=f"{len(CRASH_POINTS)} labeled crash points "
                             f"(arm: REPRO_CHAOS_CRASH=<label>[:hits])"))
    return 0


def _cmd_chaos_target(args: argparse.Namespace) -> int:
    """``repro chaos target``: one matrix workload, canonical stdout.

    This is the subprocess side of the crash matrix: the driver runs it
    uninterrupted for a baseline, armed to die at a label, and again
    over the crashed state dir -- the canonical JSON printed here is
    what must come back bit-identical.
    """
    from repro.chaos import run_target
    from repro.chaos.driver import canonical

    print(canonical(run_target(args.target, args.state_dir)))
    return 0


def _cmd_chaos_matrix(args: argparse.Namespace) -> int:
    """``repro chaos matrix``: kill at every label, assert identical resume."""
    from repro.chaos import MATRIX_TARGETS, run_crash_matrix

    targets = args.targets or sorted(MATRIX_TARGETS)
    cells = sum(len(MATRIX_TARGETS[t]) for t in targets)
    print(f"crash matrix: {len(targets)} target(s), {cells} cell(s)")

    def on_row(row) -> None:
        mark = "ok" if row.ok else "FAIL"
        detail = "" if row.ok else f": {row.detail}"
        print(f"  [{mark}] {row.target} @ {row.label}{detail}", flush=True)

    report = run_crash_matrix(targets, base_dir=args.base_dir, on_row=on_row)
    failed = [row for row in report.rows if not row.ok]
    if failed:
        print(f"crash matrix FAILED: {len(failed)} of {len(report.rows)} cell(s)")
        return 1
    print(f"crash matrix passed: every crash resumed bit-identically "
          f"({len(report.rows)} cell(s))")
    return 0


def _store_path(raw: str):
    """Resolve a store argument: the file itself, or a cache dir holding
    one (the ``columns.rcs`` the result cache writes)."""
    from pathlib import Path

    from repro.runner.cache import ResultCache

    path = Path(raw)
    if path.is_dir():
        path = path / ResultCache.STORE_FILE
    if not path.exists():
        raise SystemExit(f"no column store at {path}")
    return path


def _cmd_store_inspect(args: argparse.Namespace) -> int:
    """``repro store inspect``: stats + integrity verdict, read-only."""
    from repro.store import ColumnStore

    store = ColumnStore(_store_path(args.store), mode="read")
    stats = store.stats().to_dict()
    rows = [[key, str(value)] for key, value in stats.items()]
    print(format_table(["field", "value"], rows, title="column store"))
    problems = store.verify()
    if problems:
        print(f"verify: {len(problems)} problem(s)")
        for problem in problems[:20]:
            print(f"  {problem}")
        return 1
    print("verify: clean (every frame and entry validated)")
    return 0


def _cmd_store_scan(args: argparse.Namespace) -> int:
    """``repro store scan``: stream keys/columns, or one column's
    distribution -- quantiles answered off-disk, no pickles rehydrated."""
    import numpy as np

    from repro.store import ColumnStore, StoreError

    store = ColumnStore(_store_path(args.store), mode="read")
    if args.column is None:
        rows = []
        for key in store.keys():
            for name in store.columns(key):
                rows.append([key[:16], name])
        print(format_table(
            ["key (prefix)", "column"], rows,
            title=f"{len(store.keys())} key(s)",
        ))
        return 0
    try:
        values = store.column_values(args.column)
    except StoreError as err:
        raise SystemExit(f"scan failed: {err}")
    if values.size == 0:
        print(f"column {args.column!r}: no values")
        return 1
    quantiles = [0.5, 0.9, 0.99]
    rows = [
        ["values", str(values.size)],
        ["min", f"{values.min():.6g}"],
        ["max", f"{values.max():.6g}"],
        *[
            [f"p{int(q * 100)}", f"{float(np.quantile(values, q)):.6g}"]
            for q in quantiles
        ],
    ]
    print(format_table(["stat", "value"], rows, title=f"column {args.column!r}"))
    return 0


def _cmd_store_compact(args: argparse.Namespace) -> int:
    """``repro store compact``: rewrite with live entries only."""
    from repro.store import ColumnStore

    store = ColumnStore(_store_path(args.store), mode="append")
    report = store.compact(codec=args.codec)
    saved = report["before_bytes"] - report["after_bytes"]
    print(
        f"compacted {store.path}: {report['before_bytes']} -> "
        f"{report['after_bytes']} bytes ({saved:+d} reclaimed), "
        f"{report['keys']} key(s), {report['dropped_entries']} "
        f"unreadable entr(ies) dropped"
    )
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    """``repro obs report``: render observability artifacts as tables."""
    from repro.obs import format_obs_report, load_run_artifacts

    snapshot, events = load_run_artifacts(args.run)
    print(format_obs_report(snapshot, events, top=args.top))
    return 0 if snapshot is not None or events is not None else 1


def _parse_gateway(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"--gateway must be host:port, got {value!r}"
        )
    return host, int(port)


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the gateway until SIGINT/SIGTERM, then drain."""
    import asyncio
    import signal as _signal
    from pathlib import Path

    from repro.serve import (
        ClientQuota,
        Gateway,
        GatewayConfig,
        HealthThresholds,
    )

    # only the flags set: GatewayConfig, ClientQuota and HealthThresholds
    # fill in the rest, and the port is this deployment's
    settings = _set_flags(args, (
        "host", "max_running", "max_queue", "job_workers", "retries",
        "timeout_s", "durability", "rate_per_s", "burst",
    ))
    quota = _set_flags(args, ("max_concurrent", "max_units_per_window", "window_s"))
    if quota:
        settings["quota"] = ClientQuota(**quota)
    thresholds = _set_flags(args, ("max_error_rate",))
    if thresholds:
        settings["thresholds"] = HealthThresholds(**thresholds)
    config = GatewayConfig(state_dir=args.state_dir, port=args.port, **settings)

    async def _serve() -> int:
        gateway = Gateway(config)
        host, port = await gateway.start()
        if args.port_file:
            # written atomically so a watcher never reads a half-written
            # port; the smoke script and restart tests key off this file
            tmp = Path(args.port_file).with_suffix(".tmp")
            tmp.write_text(f"{port}\n")
            tmp.replace(args.port_file)
        print(f"gateway listening on {host}:{port} "
              f"(state: {args.state_dir}, "
              f"{len(gateway.recovered)} job(s) recovered)", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (_signal.SIGINT, _signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        server_task = asyncio.create_task(gateway.serve_forever())
        await stop.wait()
        print("draining: no new connections, finishing in-flight jobs",
              flush=True)
        server_task.cancel()
        await gateway.stop()
        return 0

    return asyncio.run(_serve())


def _cmd_submit(args: argparse.Namespace) -> int:
    """``repro submit``: one job to a running gateway; optional wait.

    Exit codes (script-friendly, same ladder as ``lifetime``): 0 job
    accepted (or, with ``--wait``, done and complete), 1 done but
    partial, 2 failed/cancelled, 3 rejected by admission control.
    """
    import asyncio
    import json as _json

    from repro.serve import GatewayClient, GatewayError

    host, port = args.gateway
    if args.kind == "population":
        params = _population_params(args)
    else:
        with open(args.grid_json, encoding="utf-8") as handle:
            grid = _json.load(handle)
        params = {"fn": args.fn, "grid": grid}
        if hasattr(args, "seed"):
            params["base_seed"] = args.seed

    async def _submit() -> int:
        client = GatewayClient(host, port, **_set_flags(args, ("timeout_s",)))
        status, body, headers = await client.submit(
            args.client, args.kind, params
        )
        if status not in (200, 202):
            retry = headers.get("retry-after", "?")
            print(f"rejected ({status}): {body.get('error', body)} "
                  f"[retry-after: {retry}s]")
            return 3
        job_id = body["job_id"]
        dedup = " (deduplicated)" if body.get("deduplicated") else ""
        print(f"job {job_id} {body['state']}{dedup}")
        if not args.wait:
            return 0
        view = await client.wait(job_id, timeout_s=args.wait_timeout)
        print(_json.dumps(view, indent=2, sort_keys=True))
        if view["state"] == "done":
            result = view.get("result") or {}
            return 0 if result.get("complete", True) else 1
        return 2

    try:
        return asyncio.run(_submit())
    except GatewayError as exc:
        print(f"error: {exc}")
        return 3


def _cmd_jobs(args: argparse.Namespace) -> int:
    """``repro jobs``: list/inspect/cancel jobs or poll gateway health."""
    import asyncio
    import json as _json

    from repro.serve import GatewayClient, GatewayError

    host, port = args.gateway

    async def _jobs() -> int:
        client = GatewayClient(host, port)
        if args.health:
            status, body, _ = await client.health()
            print(_json.dumps(body, indent=2, sort_keys=True))
            return 0 if status == 200 else 1
        if args.cancel:
            status, body, _ = await client.cancel(args.cancel)
            print(_json.dumps(body, indent=2, sort_keys=True))
            return 0 if status == 202 else 1
        if args.id:
            status, body, _ = await client.job(args.id)
            print(_json.dumps(body, indent=2, sort_keys=True))
            return 0 if status == 200 else 1
        _, body, _ = await client.jobs()
        rows = [
            [j["job_id"], j["client"], j["kind"], j["state"],
             f"{j['progress'].get('shards_done', 0)}"
             f"/{j['progress'].get('shards_total', '?')}"
             if j["progress"] else "-"]
            for j in body["jobs"]
        ]
        print(format_table(
            ["job", "client", "kind", "state", "progress"], rows,
            title=f"{len(rows)} job(s) at {host}:{port}"))
        return 0

    try:
        return asyncio.run(_jobs())
    except GatewayError as exc:
        print(f"error: {exc}")
        return 3


def _cmd_experiments(args: argparse.Namespace) -> None:
    from repro.analysis.registry import EXPERIMENTS

    rows = [
        [e.experiment_id, e.title, e.paper_source, e.bench_path]
        for e in EXPERIMENTS
    ]
    print(format_table(["id", "experiment", "paper", "bench"], rows,
                       title=f"{len(EXPERIMENTS)} reproducible experiments "
                             f"(run: pytest <bench> --benchmark-only -s)"))


def _cmd_classify(args: argparse.Namespace) -> None:
    from repro.classify.auto_delete import train_auto_delete
    from repro.classify.classifier import train_classifier
    from repro.classify.corpus import CorpusConfig, generate_corpus

    config = CorpusConfig(n_files=args.files)
    corpus = generate_corpus(config, seed=args.seed)
    _, metrics = train_classifier(corpus, now_years=config.now_years, seed=args.seed)
    _, auto = train_auto_delete(corpus, now_years=config.now_years, seed=args.seed)
    rows = [
        ["criticality accuracy", f"{metrics.accuracy:.3f}"],
        ["critical precision / recall",
         f"{metrics.precision_critical:.3f} / {metrics.recall_critical:.3f}"],
        ["files demoted to SPARE", f"{metrics.spare_fraction:.3f}"],
        ["critical files demoted", f"{metrics.critical_demotion_rate:.3f}"],
        ["auto-delete accuracy (paper cites 79%)", f"{auto.accuracy:.3f}"],
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"classifiers on a {args.files}-file corpus"))


def _days(years: float) -> int:
    """Whole simulated days in ``years`` of service."""
    from repro.flash.chip import DAYS_PER_YEAR

    return int(years * DAYS_PER_YEAR)


def _add_population_flags(p: argparse.ArgumentParser) -> None:
    """The flags of ``population`` and ``submit`` naming one population;
    only the size and service life ``FleetPlan`` requires have defaults
    here, and every other unset flag is left out of the request."""
    unset = argparse.SUPPRESS
    p.add_argument("--devices", "--users", type=int, default=200,
                   dest="devices", help="population size (devices)")
    p.add_argument("--years", type=float, default=2.5)
    p.add_argument("--capacity-gb", type=float, default=unset)
    p.add_argument("--build", default=unset, choices=_BUILDS)
    p.add_argument("--seed", type=int, default=unset)
    p.add_argument("--shard-size", type=int, default=unset,
                   help="devices per sweep point (cache/retry/timeout unit; "
                        "default: --chunk)")
    p.add_argument("--chunk", type=int, default=unset,
                   help="devices per vectorized batch-engine pass inside a "
                        "shard (bounds worker memory; results are chunk "
                        "invariant)")
    p.add_argument("--exact-cap", type=int, default=unset,
                   help="fleets up to this size keep per-device wear values "
                        "(bit-exact quantiles); larger fleets use histogram "
                        "estimates")
    p.add_argument("--fidelity", default=unset, choices=("epoch", "ftl"),
                   help="device simulation fidelity: 'epoch' runs the batched "
                        "lifetime model, 'ftl' replays every device through "
                        "the page-mapped FTL (GC, wear leveling, per-block "
                        "PEC) on the analytic fast path")


def _population_params(args: argparse.Namespace) -> dict:
    """The ``FleetPlan.from_params`` request the population flags name."""
    keys = ("capacity_gb", "build", "seed", "shard_size", "chunk", "exact_cap",
            "fidelity")
    return {"devices": args.devices, "days": _days(args.years),
            **_set_flags(args, keys)}


def _add_runner_flags(p: argparse.ArgumentParser, unit: str) -> None:
    """The sweep-runner flags of a command whose runner unit is ``unit``;
    each unset flag is left out of the ``run_sweep``/``run_fleet`` call
    (``_RUNNER_KEYS``), which fills it in."""
    unset = argparse.SUPPRESS
    p.add_argument("--jobs", type=int, default=unset,
                   help=f"worker processes for the {unit} sweep (1 = serial)")
    p.add_argument("--cache-dir", default=unset,
                   help=f"{unit} result cache directory (default: no cache); "
                        f"an interrupted run resumes from completed {unit}s, "
                        f"and a source edit recomputes every {unit}")
    p.add_argument("--retries", type=int, default=unset,
                   help=f"re-attempts per failed {unit} (exponential backoff)")
    p.add_argument("--timeout", type=float, default=unset, metavar="SECONDS",
                   dest="timeout_s",
                   help=f"per-{unit} wall-clock limit (parallel runs only)")
    p.add_argument("--keep-going", action="store_true", default=unset,
                   help=f"report failed {unit}s as structured errors instead "
                        "of aborting the run")
    p.add_argument("--durability", default=unset, choices=_DURABILITY_LEVELS,
                   help="cache write durability: none (in place; CRC catches "
                        "crash-torn records), rename (atomic tmp+rename, "
                        "default), fsync (rename + fsync of file and parent "
                        "dir)")
    p.add_argument("--bench-json", default=None, metavar="PATH",
                   help=f"write per-{unit} wall times (BENCH_runner.json format)")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro", description="SOS (HotOS '23) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="density/carbon arithmetic (§4.1-§4.2)")
    p.add_argument("--spare-fraction", type=float,
                   help="SPARE share of the cells (default: the SOS design's)")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("project", help="2021-2030 carbon projection (E2)")
    p.add_argument("--growth", type=float, default=argparse.SUPPRESS,
                   dest="bit_growth_rate", metavar="GROWTH",
                   help="annual growth of flash bit production")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("market", help="market shares + fleet churn (E1/E14)")
    p.set_defaults(func=_cmd_market)

    p = sub.add_parser("credits", help="carbon-credit surcharge (E4)")
    p.add_argument("--price", type=float, default=111.0)
    p.add_argument("--ssd-price", type=float, default=45.0)
    p.set_defaults(func=_cmd_credits)

    p = sub.add_parser("lifetime", help="lifetime engine: SOS vs baselines (E11)")
    p.add_argument("--mix", default="typical", choices=_MIXES)
    p.add_argument("--years", type=int, default=3)
    p.add_argument("--capacity-gb", type=float, default=64.0)
    p.add_argument("--seed", type=int, default=7)
    _add_runner_flags(p, "point")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write the deterministic JSONL event trace here")
    p.add_argument("--metrics-json", default=None, metavar="PATH",
                   help="write the merged metrics snapshot here "
                        "(repro.obs.metrics/v1)")
    p.add_argument("--profile", default=None, metavar="PATH",
                   help="profile the sweep with cProfile and dump stats here "
                        "(coordinator + serial points; workers are separate "
                        "processes)")
    p.set_defaults(func=_cmd_lifetime, usage_error=p.error)

    p = sub.add_parser(
        "population",
        help="sharded fleet engine: wear distribution over a population (E16)",
    )
    _add_population_flags(p)
    _add_runner_flags(p, "shard")
    p.set_defaults(func=_cmd_population, usage_error=p.error)

    p = sub.add_parser("faults", help="fault-injection utilities")
    faults_sub = p.add_subparsers(dest="faults_command", required=True)
    p = faults_sub.add_parser(
        "selftest", help="deterministic fault-plan replay + crash-containment smoke"
    )
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_faults)

    from repro.chaos import MATRIX_TARGETS

    p = sub.add_parser("chaos", help="fs/crash fault-injection utilities")
    chaos_sub = p.add_subparsers(dest="chaos_command", required=True)
    p = chaos_sub.add_parser("labels", help="list the crash-point registry")
    p.set_defaults(func=_cmd_chaos_labels)
    p = chaos_sub.add_parser(
        "target", help="run one deterministic matrix workload (driver-facing)"
    )
    p.add_argument("target", choices=sorted(MATRIX_TARGETS))
    p.add_argument("--state-dir", required=True,
                   help="cache/journal directory the workload persists into")
    p.set_defaults(func=_cmd_chaos_target)
    p = chaos_sub.add_parser(
        "matrix",
        help="kill a sweep/fleet/journal at every labeled crash point and "
             "assert the resumed output is bit-identical",
    )
    p.add_argument("targets", nargs="*", metavar="TARGET",
                   help=f"targets to run: {', '.join(sorted(MATRIX_TARGETS))} "
                        "(default: all)")
    p.add_argument("--base-dir", default=None,
                   help="working directory for matrix state "
                        "(default: a fresh temp dir)")
    p.set_defaults(func=_cmd_chaos_matrix)

    p = sub.add_parser("obs", help="observability utilities")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    p = obs_sub.add_parser(
        "report", help="render metrics/trace artifacts from a run directory"
    )
    p.add_argument("run", help="run directory (metrics.json / trace.jsonl) "
                               "or a single artifact path")
    p.add_argument("--top", type=int, default=10,
                   help="counters to show (largest first)")
    p.set_defaults(func=_cmd_obs_report)

    p = sub.add_parser("store", help="columnar result store utilities")
    store_sub = p.add_subparsers(dest="store_command", required=True)
    p = store_sub.add_parser(
        "inspect", help="stats + integrity verification (read-only)"
    )
    p.add_argument("store", help="store file or cache dir holding columns.rcs")
    p.set_defaults(func=_cmd_store_inspect)
    p = store_sub.add_parser(
        "scan", help="list keys/columns, or one column's off-disk quantiles"
    )
    p.add_argument("store", help="store file or cache dir holding columns.rcs")
    p.add_argument(
        "--column", default=None,
        help="scan this column and print its distribution (e.g. obs.wear)",
    )
    p.set_defaults(func=_cmd_store_scan)
    p = store_sub.add_parser("compact", help="rewrite with live entries only")
    p.add_argument("store", help="store file or cache dir holding columns.rcs")
    p.add_argument(
        "--codec", default=None, choices=_CODECS,
        help="recompress with this codec (default: keep the store's)",
    )
    p.set_defaults(func=_cmd_store_compact)

    p = sub.add_parser(
        "serve",
        help="run the simulation-as-a-service gateway (repro.serve)",
    )
    p.add_argument("--state-dir", required=True,
                   help="journal + result-cache directory; a restarted "
                        "gateway resumes interrupted jobs from here")
    unset = argparse.SUPPRESS
    p.add_argument("--host", default=unset, help="listen address")
    p.add_argument("--port", type=int, default=_GATEWAY_ADDRESS[1],
                   help="listen port (0 = ephemeral; see --port-file)")
    p.add_argument("--port-file", default=None, metavar="PATH",
                   help="write the bound port here once listening "
                        "(for scripts that start the gateway on port 0)")
    p.add_argument("--max-running", type=int, default=unset,
                   help="jobs executing concurrently")
    p.add_argument("--max-queue", type=int, default=unset,
                   help="admitted jobs the queue holds before answering "
                        "429 backpressure")
    p.add_argument("--job-workers", type=int, default=unset,
                   help="worker processes per job's sweep")
    p.add_argument("--retries", type=int, default=unset,
                   help="per-point retry budget inside each job")
    p.add_argument("--timeout", type=float, default=unset, metavar="SECONDS",
                   dest="timeout_s", help="per-point timeout inside each job")
    p.add_argument("--durability", default=unset, choices=_DURABILITY_LEVELS,
                   help="journal + result-cache write durability (see "
                        "lifetime --durability)")
    p.add_argument("--rate", type=float, default=unset, dest="rate_per_s",
                   metavar="RATE", help="sustained submissions/second per client")
    p.add_argument("--burst", type=float, default=unset,
                   help="submission burst a quiet client may save up")
    p.add_argument("--max-concurrent", type=int, default=unset,
                   help="queued-or-running jobs per client")
    p.add_argument("--max-units-per-window", type=int, default=unset,
                   help="devices/points a client may admit per window")
    p.add_argument("--window", type=float, default=unset, dest="window_s",
                   metavar="WINDOW", help="sliding quota window (seconds)")
    p.add_argument("--max-error-rate", type=float, default=unset,
                   help="rolling job failure rate beyond which the "
                        "gateway stops admitting (sheds) new work")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("submit", help="submit a job to a running gateway")
    p.add_argument("kind", choices=("population", "sweep"))
    p.add_argument("--gateway", type=_parse_gateway, default=_GATEWAY_ADDRESS,
                   help="gateway address as host:port")
    p.add_argument("--client", default="cli",
                   help="client id the gateway meters quotas against")
    _add_population_flags(p)
    p.add_argument("--fn", default="lifetime",
                   help="registered point function (sweep jobs)")
    p.add_argument("--grid-json", default=None, metavar="PATH",
                   help="JSON list of per-point params (sweep jobs)")
    p.add_argument("--wait", action="store_true",
                   help="poll the job to a terminal state and exit "
                        "0 complete / 1 partial / 2 failed")
    p.add_argument("--wait-timeout", type=float, default=600.0)
    p.add_argument("--poll-timeout", type=float, default=argparse.SUPPRESS,
                   dest="timeout_s", metavar="POLL_TIMEOUT",
                   help="per-request transport timeout")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("jobs", help="inspect a running gateway's jobs")
    p.add_argument("--gateway", type=_parse_gateway, default=_GATEWAY_ADDRESS,
                   help="gateway address as host:port")
    p.add_argument("--id", default=None, help="show one job in full")
    p.add_argument("--cancel", default=None, metavar="JOB_ID",
                   help="cancel a queued or running job")
    p.add_argument("--health", action="store_true",
                   help="print the /healthz report (exit 1 when shedding)")
    p.set_defaults(func=_cmd_jobs)

    p = sub.add_parser("experiments", help="list all reproducible experiments")
    p.set_defaults(func=_cmd_experiments)

    p = sub.add_parser("classify", help="train + evaluate the classifiers (E9)")
    p.add_argument("--files", type=int, default=4000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_classify)

    args = parser.parse_args(argv)
    # commands that can fail return an int; display-only commands return None
    return args.func(args) or 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
