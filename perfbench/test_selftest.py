"""Self-tests of the benchmark harness (not part of the repo's test suite).

Run from the root of a checkout::

    python3 -m pytest perfbench -q

They pin what makes the per-layer numbers trustworthy: tracing that is
switched off changes nothing, traced call counts repeat exactly, the
wrappers sit where callers look names up, the host-speed sampler
accounts for its own time and puts the alarm back, and a benchmark run
leaves the working tree as it found it.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from scenarios import E6_ARMS, _e6_arm  # noqa: E402


def _originals() -> list:
    return [
        layers.get_raw(layers.resolve(owner), attr)
        for _, owner, attr, _ in layers.TARGETS
    ]


def _small(name: str, tmp: Path):
    """A seconds-long instance of each fleet workload."""
    tmp.mkdir(parents=True, exist_ok=True)
    if name == "epoch-fleet":
        return workloads.EpochFleet(606, tmp, n_devices=40, shard_size=20, chunk=10, days=30)
    if name == "ftl-fleet":
        return workloads.FtlFleet(606, tmp, n_devices=4, shard_size=2, chunk=2, days=20)
    return workloads.FleetResume(606, tmp, n_devices=40, shard_size=4, days=30)


def _one_round(workload) -> None:
    workload.prepare()
    try:
        workload.check_round(workload.run_round())
    finally:
        workload.close()
    assert workload.tally.failures == []


#: wrapped functions each small workload must reach (proof that the
#: wrapper sits in the namespace the caller resolves)
EXPECTED = {
    "epoch-fleet": {
        "workloads.daily_volume_arrays", "sim.build", "sim.summary_batch",
        "sim.from_devices", "sim.step_day", "sim.scatter_to",
        "sim.run_lifetime_batch", "ecc.residual_ber_many", "runner.run_sweep",
        "runner.cache_load", "runner.cache_store", "store.put",
        "fleet.shard_point", "fleet.digest_add", "fleet.digest_merge",
    },
    "ftl-fleet": {
        "ftl.replay", "ftl.build", "ftl.write_many", "ftl.read_many",
        "ftl.trim_many", "ftl.run_wear_leveling", "ftl.gc_select_victim",
        "flash.advance_time",
    },
    "fleet-resume": {
        "runner.cache_load", "store.get", "store.unpack_block_body",
        "store.column_values", "store.compact", "store.put",
    },
}


def test_untraced_run_leaves_every_wrapped_attribute_identical(tmp_path):
    before = _originals()
    _one_round(_small("fleet-resume", tmp_path))
    assert all(a is b for a, b in zip(before, _originals()))
    with layers.traced(layers.Tracer()):
        assert all(a is not b for a, b in zip(before, _originals()))
    assert all(a is b for a, b in zip(before, _originals()))


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_two_traced_runs_count_the_same_calls(tmp_path, name):
    counts = []
    for attempt in range(2):
        tracer = layers.Tracer()
        with layers.traced(tracer):
            _one_round(_small(name, tmp_path / str(attempt)))
        counts.append({n: s.calls for n, s in tracer.stats.items()})
    assert counts[0] == counts[1]
    assert {n for n, calls in counts[0].items() if calls} >= EXPECTED[name]


def test_two_traced_bitexact_arms_count_the_same_calls():
    counts = []
    for _ in range(2):
        tracer = layers.Tracer()
        with layers.traced(tracer):
            _e6_arm(*E6_ARMS["hybrid, no scrub"])
        counts.append({n: s.calls for n, s in tracer.stats.items()})
    assert counts[0] == counts[1]
    assert counts[0]["ecc.bch_encode"] > 0 and counts[0]["ecc.bch_decode"] > 0
    assert counts[0]["media.store"] == 1 and counts[0]["media.audit_quality"] == 4


def test_wrappers_are_installed_where_the_caller_looks_the_name_up():
    import repro.fleet.points
    import repro.fleet.run
    import repro.runner.sweep
    import repro.store.format
    import repro.store.store

    defined = {
        "store": repro.store.format.unpack_block_body,
        "sweep": repro.runner.sweep.run_sweep,
        "shard": repro.fleet.points.fleet_shard_point,
    }
    with layers.traced(layers.Tracer()):
        assert repro.store.store.unpack_block_body is not defined["store"]
        assert repro.store.store.unpack_block_body.__wrapped__ is defined["store"]
        assert repro.store.format.unpack_block_body is defined["store"]
        assert repro.fleet.run.run_sweep.__wrapped__ is defined["sweep"]
        assert repro.runner.sweep.run_sweep is defined["sweep"]
        assert repro.fleet.run.fleet_shard_point.__wrapped__ is defined["shard"]
        assert repro.fleet.points.fleet_shard_point is defined["shard"]


def test_the_reference_block_always_does_the_same_work():
    assert len({hostspeed.reference_block() for _ in range(3)}) == 1


def test_the_sampler_times_itself_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(interval=0.05) as sampler:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    assert sampler.overhead == pytest.approx(sum(sampler.samples))
    assert sampler.speed() == pytest.approx(sum(sampler.samples) / len(sampler.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _git_status() -> str | None:
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
    except FileNotFoundError:
        return None
    return out.stdout if out.returncode == 0 else None


def _bench(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-resume",
         "--seed", "607", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_a_run_leaves_git_status_unchanged():
    before = _git_status()
    if before is None:
        pytest.skip("not a git work tree")
    run = _bench(ROOT, "--trace", "1")
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["store.unpack_block_body.calls"]["value"] > 0
    assert _git_status() == before
    assert not (ROOT / ".perfbench_tmp").exists()


def test_without_the_program_source_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = _bench(tmp_path)
    assert run.returncode != 0
    assert '"correct"' not in run.stdout
