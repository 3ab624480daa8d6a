"""The crash matrix: die at every labeled point, resume bit-identically.

The driver turns the crash-point registry into a test harness.  For
each *target* -- a small, fully deterministic workload that exercises
one slice of the storage stack -- it runs three subprocesses per label:

1. **baseline**: the target uninterrupted, in a fresh state dir; its
   canonical-JSON stdout is the reference output;
2. **armed**: the target in another fresh state dir with
   ``REPRO_CHAOS_CRASH=<label>``, which must die with
   :data:`~repro.chaos.crash.CRASH_EXIT` at the label (any other exit
   means the label never fired -- a matrix that silently tests nothing
   is itself a failure);
3. **resumed**: the target again, disarmed, over the crashed run's
   state dir; it must exit cleanly and print **byte-identical** output
   to the baseline.

That last comparison is the whole durability claim in one predicate:
whatever instant the process died at, the cache/journal state it left
behind resumes to the same answer an uninterrupted run produces.

Targets run via ``python -m repro.cli chaos target <name>`` so they are
ordinary subprocesses; each is started in its own session so any worker
a crash orphans can be reaped by process group (belt) on top of the
workers' own PDEATHSIG tie to the coordinator (braces).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from .crash import CRASH_EXIT, CRASH_POINT_ENV

__all__ = [
    "MATRIX_TARGETS",
    "MatrixReport",
    "MatrixRow",
    "matrix_point",
    "run_crash_matrix",
    "run_target",
]

#: target name -> the crash labels its workload provably reaches
MATRIX_TARGETS: dict[str, tuple[str, ...]] = {
    "sweep": (
        "cache.store.pre_rename",
        "cache.store.post_rename",
        "sweep.point.post_persist",
    ),
    "fleet": (
        "cache.store.pre_rename",
        "cache.store.post_rename",
        "sweep.point.post_persist",
        "fleet.shard.reduced",
        # shard observables route through the column store: a block is
        # appended per persisted shard, the index at finalize
        "store.block.append",
        "store.index.write",
    ),
    "journal": (
        "journal.save.pre_rename",
        "journal.save.post_rename",
    ),
    "store": (
        "store.block.append",
        "store.index.write",
        "store.compact.rename",
    ),
}
# the sweep and the fleet run over a 2-worker pool, and again in-process
# at jobs=1, the path the benchmarks and the claim suite take
MATRIX_TARGETS.update(
    {f"{name}-inproc": MATRIX_TARGETS[name] for name in ("sweep", "fleet")}
)

_TIMEOUT_S = 120.0


def matrix_point(params: dict, seed: int) -> dict:
    """Cheap, pure sweep point for the matrix (importable for pickling)."""
    return {"i": params["i"], "v": (params["i"] * 1_000_003 + seed) % 999_983}


# -- targets (run inside the subprocess) ---------------------------------------


def run_target(name: str, state_dir: str | Path) -> dict:
    """Execute one matrix target against ``state_dir``; returns its
    canonical output payload (plain data, no wall-clock fields)."""
    if name in ("sweep", "sweep-inproc"):
        return _target_sweep(Path(state_dir), jobs=2 if name == "sweep" else 1)
    if name in ("fleet", "fleet-inproc"):
        return _target_fleet(Path(state_dir), jobs=2 if name == "fleet" else 1)
    if name == "journal":
        return _target_journal(Path(state_dir))
    if name == "store":
        return _target_store(Path(state_dir))
    raise ValueError(
        f"unknown matrix target {name!r}; known: {', '.join(sorted(MATRIX_TARGETS))}"
    )


def _target_sweep(state_dir: Path, jobs: int) -> dict:
    """A sweep through the result cache's crash points."""
    from repro.runner.sweep import Sweep, run_sweep

    sweep = Sweep(
        name="chaos-matrix-sweep",
        fn=matrix_point,
        grid=tuple({"i": i} for i in range(8)),
        base_seed=20260807,
    )
    result = run_sweep(sweep, jobs=jobs, cache_dir=state_dir / "cache")
    return {"values": [p.value for p in result.points]}


def _target_fleet(state_dir: Path, jobs: int) -> dict:
    """A sharded fleet: cache crash points plus the reduction one."""
    from repro.fleet import FleetPlan, run_fleet

    plan = FleetPlan(
        n_devices=40, days=30, capacity_gb=64.0, seed=7, shard_size=10, chunk=10
    )
    fleet = run_fleet(plan, jobs=jobs, cache_dir=state_dir / "cache")
    summary = fleet.summary()
    keys = (
        "devices", "requested_devices", "missing_devices", "shards",
        "failed_shards", "complete", "exact", "median", "p90", "p99",
        "max", "mean", "worn_out_fraction",
    )
    return {k: summary[k] for k in keys}


def _target_journal(state_dir: Path) -> dict:
    """Drive three jobs through the journal's full state walk.

    Written to *converge*: records already journaled by a crashed run
    are recovered and re-walked to the same terminal state, so whatever
    instant a save died at, the final journal picture is identical.
    Timestamps and attempt counts are excluded from the output -- they
    legitimately differ between an uninterrupted run and a resumed one.
    """
    from repro.serve.jobs import JobRecord, JobSpec, JobStore

    store = JobStore(state_dir / "jobs")
    store.recover()
    out = []
    for index in range(3):
        spec = JobSpec(
            client="chaos-matrix",
            kind="sweep",
            params={"fn": "lifetime", "grid": [{"index": index}], "base_seed": index},
        )
        record = store.load(spec.job_id())
        if record is None:
            record = JobRecord.fresh(spec, now=0.0)
        record.state = "running"
        store.save(record)
        record.state = "done"
        record.result = {"points": 1, "checksum": (index * 7919 + 13) % 104729}
        record.error = None
        store.save(record)
        out.append(
            {"job_id": record.job_id, "state": record.state, "result": record.result}
        )
    out.sort(key=lambda item: item["job_id"])
    return {"jobs": out, "corrupt_skipped": store.corrupt_skipped}


def _target_store(state_dir: Path) -> dict:
    """Drive a ColumnStore through append, checkpoint, and compact.

    Written to *converge*: every put is guarded by a presence check, so
    a run resumed over crashed state skips what already landed, and the
    final :meth:`~repro.store.ColumnStore.compact` rewrites the file
    from sorted logical content -- whatever block layout the crash and
    resume history produced, the compacted bytes (and so their SHA-256)
    match the uninterrupted run's exactly.
    """
    import hashlib

    import numpy as np

    from repro.store import ColumnStore

    path = Path(state_dir) / "store" / "target.rcs"
    # small block_bytes: each put flushes its own block, so the
    # block-append crash point fires on the very first key
    store = ColumnStore(path, codec="zlib", block_bytes=256)
    for index in range(6):
        key = f"point-{index:02d}"
        if key not in store:
            lane = np.arange(40, dtype=np.float64) * (index + 1)
            store.put(key, {
                "wear": lane / 100.0,
                "retired": (np.arange(40, dtype=np.int64) * (index + 3)) % 7,
            })
    store.checkpoint()
    report = store.compact()
    listing = {}
    for key in store.keys():
        arrays = store.get(key)
        listing[key] = {
            name: {
                "dtype": str(arr.dtype),
                "shape": list(arr.shape),
                "sha256": hashlib.sha256(arr.tobytes()).hexdigest(),
            }
            for name, arr in sorted(arrays.items())
        }
    return {
        "keys": store.keys(),
        "columns": listing,
        "compacted_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "dropped": report["dropped_entries"],
    }


def canonical(payload: dict) -> str:
    """One canonical encoding so stdout comparison is byte-exact."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# -- the driver (runs the targets as subprocesses) -----------------------------


@dataclass(slots=True)
class MatrixRow:
    """Outcome of one (target, label) cell."""

    target: str
    label: str
    ok: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "label": self.label,
            "ok": self.ok,
            "detail": self.detail,
        }


@dataclass(slots=True)
class MatrixReport:
    """Every cell's outcome; ``ok`` only when the whole matrix held."""

    rows: list[MatrixRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def to_dict(self) -> dict:
        return {"ok": self.ok, "rows": [row.to_dict() for row in self.rows]}


def _spawn_target(
    name: str, state_dir: Path, *, armed_label: str | None, python: str
) -> subprocess.CompletedProcess:
    env = os.environ.copy()
    env.pop(CRASH_POINT_ENV, None)
    if armed_label is not None:
        env[CRASH_POINT_ENV] = armed_label
    # the subprocess must resolve the same repro tree this driver runs from
    src = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    cmd = [
        python, "-m", "repro.cli", "chaos", "target", name,
        "--state-dir", str(state_dir),
    ]
    with subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        start_new_session=True,  # own process group: stragglers are reapable
    ) as child:
        try:
            stdout, stderr = child.communicate(timeout=_TIMEOUT_S)
        finally:
            try:  # reap any worker the crash orphaned (PDEATHSIG is the main net)
                os.killpg(child.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError, OSError):
                pass
    return subprocess.CompletedProcess(cmd, child.returncode, stdout, stderr)


def _stderr_tail(proc: subprocess.CompletedProcess, lines: int = 4) -> str:
    text = proc.stderr.decode("utf-8", errors="replace").strip()
    return " | ".join(text.splitlines()[-lines:])


def run_crash_matrix(
    targets: list[str] | None = None,
    *,
    base_dir: str | Path | None = None,
    python: str = sys.executable,
    on_row=None,
) -> MatrixReport:
    """Run the full matrix; every cell becomes a :class:`MatrixRow`.

    ``on_row`` (callable taking a row) streams progress to a CLI.  The
    driver never raises on a failed cell -- the report carries the
    verdict -- but subprocess timeouts do propagate: a hung target is
    an environment problem, not a durability result.
    """
    chosen = sorted(MATRIX_TARGETS) if targets is None else list(targets)
    for name in chosen:
        if name not in MATRIX_TARGETS:
            raise ValueError(f"unknown matrix target {name!r}")
    base = Path(
        tempfile.mkdtemp(prefix="chaos-matrix-") if base_dir is None else base_dir
    )
    report = MatrixReport()

    def emit(row: MatrixRow) -> None:
        report.rows.append(row)
        if on_row is not None:
            on_row(row)

    for name in chosen:
        baseline = _spawn_target(
            name, base / name / "baseline", armed_label=None, python=python
        )
        if baseline.returncode != 0:
            emit(MatrixRow(
                name, "(baseline)", False,
                f"baseline exited {baseline.returncode}: {_stderr_tail(baseline)}",
            ))
            continue
        reference = baseline.stdout
        for label in MATRIX_TARGETS[name]:
            state_dir = base / name / label.replace(".", "_")
            armed = _spawn_target(
                name, state_dir, armed_label=label, python=python
            )
            if armed.returncode != CRASH_EXIT:
                emit(MatrixRow(
                    name, label, False,
                    f"armed run exited {armed.returncode}, expected "
                    f"{CRASH_EXIT} -- the label never fired: "
                    f"{_stderr_tail(armed)}",
                ))
                continue
            resumed = _spawn_target(
                name, state_dir, armed_label=None, python=python
            )
            if resumed.returncode != 0:
                emit(MatrixRow(
                    name, label, False,
                    f"resumed run exited {resumed.returncode}: "
                    f"{_stderr_tail(resumed)}",
                ))
            elif resumed.stdout != reference:
                emit(MatrixRow(
                    name, label, False,
                    "resumed output differs from baseline: "
                    f"{resumed.stdout!r} != {reference!r}",
                ))
            else:
                emit(MatrixRow(name, label, True, "resume bit-identical"))
    return report
