"""Repo benchmark: host time of the SOS simulator, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload epoch-fleet --seed 606 --seconds 12 --trace 0

Workloads: ``epoch-fleet``, ``ftl-fleet``, ``bitexact-claims`` and
``fleet-resume`` (see NOTES.md for why each exists).  The run sets the
workload up several times (median reported as ``setup_s``), then repeats
measured rounds until ``--seconds`` would be exceeded (at least one),
checking every round's outputs.  ``--trace 0`` reports the end-to-end
metrics, with times in reference seconds (``hostspeed.py``: the host's
changing speed is divided out); ``--trace 1`` alternates untraced rounds
with rounds that have the per-layer wrappers of ``layers.py`` installed,
and reports per-layer call counts, self-time shares and the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed output
check or claim is printed to standard error and the exit code is 1.
The program under test is imported from ``src/`` of the checkout; the
run fails without a result when it is not there.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-ups per run; the median is reported
SETUP_REPEATS = 3


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("epoch-fleet", "ftl-fleet", "bitexact-claims",
                                 "fleet-resume"))
    parser.add_argument("--seed", type=int, default=606)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import the program from this checkout's ``src/``, never elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    import workloads

    return workloads


def import_once() -> None:
    """Start a fresh interpreter that imports every module a workload
    needs and exits (the process-start part of set-up)."""
    code = "import sys; sys.path[:0] = sys.argv[1:]; import workloads"
    subprocess.run([sys.executable, "-c", code, str(HERE), str(SRC)], check=True)


def host_record(seed: int) -> dict:
    """What moves the numbers besides the code: cores, CPU, versions, CRC."""
    import numpy
    import scipy
    from repro.runner import record

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "crc32c": "native" if record._crc32c_native is not None else "python-fallback",
    }


def measure(workload, budget_s: float, tracer=None) -> dict[str, list[float]]:
    """Run rounds until the next would overrun ``budget_s``.

    Returns per-round lists: ``wall`` (raw wall of the untraced rounds),
    ``speed`` and ``ref`` (see below) and ``traced`` (wall of the traced
    rounds).  Only ``run_round`` is timed (and, when tracing, wrapped);
    output checks and clean-up run between rounds.

    Without a tracer every round runs under the host-speed sampler:
    ``wall`` is then the round's wall minus the sampler's own time,
    ``speed`` the mean reference-block duration during the round, and
    ``ref`` the round in reference seconds.  With a tracer there is no
    sampler (its handler would land in some layer's self time): one
    untimed warm-up round comes first, then traced and untraced rounds
    alternate, so lazy one-time work does not land on either side of the
    overhead comparison.
    """
    out: dict[str, list[float]] = {"wall": [], "speed": [], "ref": [], "traced": []}
    if tracer is not None:
        workload.check_round(workload.run_round())
    traced_next = tracer is not None
    start = time.perf_counter()
    while True:
        if traced_next:
            with layers.traced(tracer):
                t0 = time.perf_counter()
                result = workload.run_round()
                out["traced"].append(time.perf_counter() - t0)
        elif tracer is not None:
            t0 = time.perf_counter()
            result = workload.run_round()
            out["wall"].append(time.perf_counter() - t0)
        else:
            with hostspeed.Sampler() as sampler:
                t0 = time.perf_counter()
                result = workload.run_round()
                wall = time.perf_counter() - t0 - sampler.overhead
            speed = sampler.speed() or statistics.fmean(hostspeed.reference_samples(5))
            out["wall"].append(wall)
            out["speed"].append(speed)
            out["ref"].append(wall * hostspeed.REFERENCE_S / speed)
        workload.check_round(result)
        if tracer is not None:
            traced_next = not traced_next
            if not out["wall"]:
                continue
        longest = max(statistics.median(out[k]) for k in ("wall", "traced") if out[k])
        if time.perf_counter() - start + longest > budget_s:
            return out


def in_reference_seconds(step) -> float:
    """Time ``step()`` in reference seconds.

    The host-speed sampler runs during the step, also while this process
    waits for a child it started.  A step too short for the sampler to
    fire is rescaled by reference blocks run just before and after it.
    """
    before = hostspeed.reference_samples(5)
    with hostspeed.Sampler() as sampler:
        t0 = time.perf_counter()
        step()
        elapsed = time.perf_counter() - t0
    if sampler.samples:
        return (elapsed - sampler.overhead) * hostspeed.REFERENCE_S / sampler.speed()
    speed = statistics.fmean(before + hostspeed.reference_samples(5))
    return elapsed * hostspeed.REFERENCE_S / speed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    args = _parse(argv)
    workloads = _import_program()
    print(f"host: {json.dumps(host_record(args.seed))}")

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
    try:
        imports = [in_reference_seconds(import_once) for _ in range(SETUP_REPEATS)]
        prepares = [in_reference_seconds(workload.prepare) for _ in range(SETUP_REPEATS)]
        setup_s = statistics.median(imports) + statistics.median(prepares)
        tracer = layers.Tracer() if args.trace else None
        rounds = measure(workload, args.seconds, tracer)
    finally:
        workload.close()
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    walls = rounds["wall"]
    wall_s = statistics.median(walls)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally = workload.tally
    failed = len(tally.failures)
    print(f"workload: {args.workload} seed={args.seed} jobs=1 rounds={len(walls)}")
    print(f"setup_s = {setup_s:.4f} s (reference seconds: median of {len(imports)} "
          f"fresh-process imports {statistics.median(imports):.4f} s + median of "
          f"{len(prepares)} set-ups {statistics.median(prepares):.4f} s)")
    print(f"raw wall = {wall_s:.4f} s (median of {len(walls)} rounds; "
          f"q1 {quartiles(walls)[0]:.4f}, q3 {quartiles(walls)[2]:.4f})")

    if args.trace:
        traced = rounds["traced"]
        traced_s = statistics.median(traced)
        metrics = tracer.layer_metrics(sum(traced))
        metrics["ftl.waf"] = getattr(workload, "waf", 0.0)
        metrics["trace.untraced_wall_s"] = wall_s
        metrics["trace.traced_wall_s"] = traced_s
        metrics["trace.traced_total_s"] = sum(traced)
        metrics["trace.overhead"] = traced_s / wall_s - 1.0
        print(f"tracing overhead = {metrics['trace.overhead']:+.2%} "
              f"(traced median {traced_s:.4f} s over {len(traced)} rounds "
              f"vs untraced {wall_s:.4f} s)")
        print(layers.format_table(tracer, sum(traced)))
        units = {name: "ratio" for name in metrics}
        units.update({name: "count" for name in metrics if name.endswith(".calls")})
        units.update({name: "s" for name in metrics if name.endswith("_s")})
    else:
        q1, round_s, q3 = quartiles(rounds["ref"])
        items_per_s = workload.items / round_s
        speed = statistics.median(rounds["speed"])
        print(f"reference block = {speed * 1e3:.3f} ms (median over rounds; "
              f"{hostspeed.REFERENCE_S * 1e3:.1f} ms is one reference second's pace)")
        print(f"round_s = {round_s:.4f} s (reference seconds; median of "
              f"{len(walls)} rounds; q1 {q1:.4f}, q3 {q3:.4f})")
        print(f"{workload.throughput} = {items_per_s:.2f} {workload.item_unit}/s "
              f"({workload.items} {workload.item_unit} per round, reference seconds)")
        metrics = {"setup_s": setup_s, "round_s": round_s,
                   "items_per_s": items_per_s, "peak_rss_mb": rss_mb}
        units = {"setup_s": "s", "round_s": "s", "items_per_s": "1/s",
                 "peak_rss_mb": "MiB"}
    print(f"peak_rss_mb = {rss_mb:.1f} MiB")
    print(f"failed_fraction = {failed / max(1, tally.attempted):.4f} ratio "
          f"({failed} of {tally.attempted} units)")

    for failure in tally.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
