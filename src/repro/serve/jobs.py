"""Job abstraction: specs, journaled records, and the execution core.

A *job* is the serving-layer unit of work -- the refactoring target the
gateway forced on :func:`repro.runner.sweep.run_sweep` and
:func:`repro.fleet.run.run_fleet`: both now expose cancellation
(``should_stop``) and progress hooks, so one :func:`execute_job` call
can drive either engine under a scheduler that needs to stop, observe,
and resume them.

Three pieces live here:

* :class:`JobSpec` -- a validated, plain-JSON description of what to
  run: a ``population`` job (a :class:`~repro.fleet.plan.FleetPlan`)
  or a ``sweep`` job over a *registered* point function (clients name
  functions from :data:`SWEEP_POINT_FNS`; the wire never carries code).
  A job's identity is a stable hash of (client, kind, params) and the
  :func:`~repro.runner.cache.code_fingerprint` of the running source,
  so resubmitting the same work under the same code re-attaches to the
  same job -- and, below it, the same
  :class:`~repro.runner.cache.ResultCache` entries -- while the same
  spec under edited code is new work.
* :class:`JobRecord`/:class:`JobStore` -- the crash journal.  Every
  state transition (queued -> running -> done/failed/cancelled) is an
  atomic write-then-rename of one JSON file, so a gateway killed at any
  instant restarts into a consistent picture: terminal jobs keep their
  results, interrupted jobs are re-queued, and their sweeps resume from
  whatever points the result cache already holds.
* :func:`execute_job` -- the blocking execution core the scheduler runs
  in a worker thread: builds the sweep/fleet, runs it ``keep_going`` so
  partial failures degrade to structured errors instead of sinking the
  job, and reduces the outcome to a plain JSON-able result payload.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.chaos import (
    DEFAULT_DURABILITY, DURABILITY_LEVELS, get_fs, quarantine, write_durably,
)
from repro.obs import get_observer
from repro.runner.cache import code_fingerprint, stable_key

_LOG = logging.getLogger("repro.serve.jobs")

__all__ = [
    "JOB_STATES",
    "SWEEP_POINT_FNS",
    "TERMINAL_STATES",
    "JobSpec",
    "JobRecord",
    "JobStore",
    "execute_job",
    "spec_units",
]

_RECORD_SCHEMA = "repro.serve.job/v1"

#: every state a job can be in; ``queued`` and ``running`` are the
#: non-terminal ones a restart re-queues
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Point functions a ``sweep`` job may name.  A registry -- never a
#: dotted path off the wire -- so a client cannot make worker processes
#: import arbitrary modules.  The faultfns entries are deliberate:
#: they are the fault-injection doubles the robustness tests (and any
#: operator rehearsing failure drills) drive through a live gateway.
#: Device populations are ``population`` jobs, never sweep fns.
SWEEP_POINT_FNS: dict[str, str] = {
    "lifetime": "repro.runner.points:lifetime_point",
    "flaky": "repro.runner.faultfns:flaky_point",
    "crash": "repro.runner.faultfns:crash_point",
    "sleepy": "repro.runner.faultfns:sleepy_point",
}

_MAX_SWEEP_GRID = 10_000
_MAX_DEVICES = 10_000_000
_MAX_YEARS = 100


def _resolve_point_fn(name: str) -> Callable[[dict, int], Any]:
    import importlib

    if name not in SWEEP_POINT_FNS:
        # a journaled job can outlive its fn: it fails, the gateway runs on
        raise ValueError(f"sweep fn {name!r} is no longer registered")
    target = SWEEP_POINT_FNS[name]
    module_name, _, attr = target.partition(":")
    return getattr(importlib.import_module(module_name), attr)


@dataclass(frozen=True, slots=True)
class JobSpec:
    """Validated description of one job; plain JSON end to end."""

    client: str
    kind: str
    params: dict

    @classmethod
    def from_wire(cls, payload: Any) -> "JobSpec":
        """Validate an untrusted submission body into a spec.

        Raises ``ValueError`` with a client-presentable message; the
        gateway maps that to a 400.
        """
        if not isinstance(payload, dict):
            raise ValueError("submission body must be a JSON object")
        client = payload.get("client")
        if not isinstance(client, str) or not client or len(client) > 128:
            raise ValueError("'client' must be a non-empty string (<= 128 chars)")
        kind = payload.get("kind")
        params = payload.get("params")
        if not isinstance(params, dict):
            raise ValueError("'params' must be a JSON object")
        if kind == "population":
            params = cls._validate_population(params)
        elif kind == "sweep":
            params = cls._validate_sweep(params)
        else:
            raise ValueError("'kind' must be 'population' or 'sweep'")
        spec = cls(client=client, kind=kind, params=params)
        # a spec must be cache-keyable by construction (job identity and
        # every sweep point key hang off this)
        spec.job_id()
        return spec

    @staticmethod
    def _validate_population(params: dict) -> dict:
        """The canonical params of the plan ``params`` names, within the
        service limits; :meth:`FleetPlan.from_params` checks the rest."""
        from repro.flash.chip import DAYS_PER_YEAR
        from repro.fleet import FleetPlan

        plan = FleetPlan.from_params(params)
        if plan.n_devices > _MAX_DEVICES:
            raise ValueError(f"'devices' must be at most {_MAX_DEVICES}")
        if plan.days > _MAX_YEARS * DAYS_PER_YEAR:
            raise ValueError(f"'days' must be at most {_MAX_YEARS * DAYS_PER_YEAR}")
        return plan.to_params()

    @staticmethod
    def _validate_sweep(params: dict) -> dict:
        fn = params.get("fn")
        if fn not in SWEEP_POINT_FNS:
            raise ValueError(
                f"'fn' must be one of {sorted(SWEEP_POINT_FNS)}, got {fn!r}"
            )
        grid = params.get("grid")
        if (
            not isinstance(grid, list)
            or not grid
            or len(grid) > _MAX_SWEEP_GRID
            or not all(isinstance(p, dict) for p in grid)
        ):
            raise ValueError(
                f"'grid' must be a non-empty list of <= {_MAX_SWEEP_GRID} "
                "parameter objects"
            )
        base_seed = params.get("base_seed", 0)
        if isinstance(base_seed, bool) or not isinstance(base_seed, int) or base_seed < 0:
            raise ValueError("'base_seed' must be a non-negative int")
        return {"fn": fn, "grid": grid, "base_seed": base_seed}

    def job_id(self) -> str:
        """Stable identity: same client + same work + same code = same job."""
        return "j" + stable_key(
            {
                "client": self.client,
                "kind": self.kind,
                "code": code_fingerprint(),
                "params": self.params,
            }
        )[:16]

    def units(self) -> int:
        return spec_units(self)

    def to_dict(self) -> dict:
        return {"client": self.client, "kind": self.kind, "params": self.params}


def spec_units(spec: JobSpec) -> int:
    """Quota charge for one job: devices or grid points, never "1 job"."""
    if spec.kind == "population":
        return int(spec.params["devices"])
    return len(spec.params["grid"])


@dataclass(slots=True)
class JobRecord:
    """One job's journaled lifecycle."""

    spec: JobSpec
    job_id: str
    state: str = "queued"
    submitted_at: float = 0.0
    updated_at: float = 0.0
    #: times the gateway has (re)started executing this job, across
    #: restarts -- distinct from the sweep-level per-point retries
    attempts: int = 0
    result: dict | None = None
    error: str | None = None
    #: in-memory progress feed {shards_done, shards_total, devices_done};
    #: journaled on state transitions only (a restart resets it, the
    #: result cache -- not this field -- carries resumed work)
    progress: dict = field(default_factory=dict)

    @classmethod
    def fresh(cls, spec: JobSpec, now: float | None = None) -> "JobRecord":
        now = time.time() if now is None else now
        return cls(
            spec=spec, job_id=spec.job_id(), submitted_at=now, updated_at=now
        )

    def to_dict(self) -> dict:
        return {
            "schema": _RECORD_SCHEMA,
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "submitted_at": self.submitted_at,
            "updated_at": self.updated_at,
            "attempts": self.attempts,
            "result": self.result,
            "error": self.error,
            "progress": self.progress,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        if data.get("schema") != _RECORD_SCHEMA:
            raise ValueError(f"not a job record: schema {data.get('schema')!r}")
        if data.get("state") not in JOB_STATES:
            raise ValueError(f"unknown job state {data.get('state')!r}")
        spec_data = data["spec"]
        spec = JobSpec(
            client=spec_data["client"],
            kind=spec_data["kind"],
            params=spec_data["params"],
        )
        return cls(
            spec=spec,
            job_id=data["job_id"],
            state=data["state"],
            submitted_at=data["submitted_at"],
            updated_at=data["updated_at"],
            attempts=data.get("attempts", 0),
            result=data.get("result"),
            error=data.get("error"),
            progress=data.get("progress") or {},
        )

    def public_view(self) -> dict:
        """The wire shape of a job for status endpoints."""
        view = self.to_dict()
        del view["schema"]
        return view


class JobStore:
    """Crash journal: one atomically replaced JSON file per job.

    Writes share the result cache's writer,
    :func:`repro.chaos.fs.write_durably`: serialize to a temp file in
    the same directory, then replace -- a reader sees either the old
    record or the new one, never a torn hybrid.  Hardened the same way
    the cache is:

    * a file that fails to parse (hand-edited, disk-torn despite the
      rename, written by a future schema) is **quarantined once** to
      ``corrupt/``, counted, and warned about -- never fatal, and never
      re-counted on every restart, because the move takes it out of the
      journal glob for good;
    * a **failed save degrades, it does not kill**: the record stays
      authoritative in memory, the failure is counted and latches the
      ``degraded`` flag (which the gateway folds into ``/healthz``
      shedding), and the next successful save clears it -- a full disk
      must not take down a gateway that is still serving status and
      cached results;
    * writes route through the :mod:`repro.chaos` fs layer and carry
      the ``journal.save.*`` crash points, so the crash matrix can kill
      a gateway mid-append and assert recovery.
    """

    #: subdirectory unparseable journal entries are moved to
    CORRUPT_DIR = "corrupt"

    def __init__(
        self,
        root: str | Path,
        *,
        durability: str = DEFAULT_DURABILITY,
        fs=None,
    ) -> None:
        if durability not in DURABILITY_LEVELS:
            raise ValueError(
                f"durability must be one of {DURABILITY_LEVELS}, got {durability!r}"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.durability = durability
        self.fs = fs if fs is not None else get_fs()
        #: unparseable journal entries quarantined (counted once each)
        self.corrupt_skipped = 0
        #: journal writes that failed and were absorbed
        self.save_failures = 0
        #: True while the last save failed; clears on the next success
        self.degraded = False

    def _path(self, job_id: str) -> Path:
        if not job_id.replace("-", "").isalnum():
            raise ValueError(f"malformed job id {job_id!r}")
        return self.root / f"{job_id}.json"

    def save(self, record: JobRecord) -> bool:
        """Journal one record; False when the write was absorbed.

        Degrade-don't-die: an ``OSError`` (disk full, I/O error) is
        counted and latched, the in-memory record stays authoritative,
        and the gateway keeps running -- it sheds via health instead of
        crashing.  Non-I/O errors (unserializable record) still raise;
        they are bugs.
        """
        record.updated_at = time.time()
        path = self._path(record.job_id)
        payload = json.dumps(
            record.to_dict(), sort_keys=True, default=float
        ).encode("utf-8")
        try:
            write_durably(self.fs, path, payload, self.durability, "journal.save")
        except OSError as err:
            self.save_failures += 1
            self.degraded = True
            get_observer().count("journal.save_failures")
            _LOG.warning(
                "job journal %s: absorbed failed save of %s (%s); record "
                "stays in memory, gateway degrades via health",
                self.root, record.job_id, err,
            )
            return False
        self.degraded = False
        return True

    def load(self, job_id: str) -> JobRecord | None:
        path = self._path(job_id)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            return JobRecord.from_dict(data)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
            self._quarantine(path, err)
            return None

    def _quarantine(self, path: Path, err: Exception) -> None:
        """Move one unparseable journal entry aside, once, loudly."""
        dest = quarantine(path, self.root / self.CORRUPT_DIR)
        self.corrupt_skipped += 1
        get_observer().count("journal.corrupt_skipped")
        _LOG.warning(
            "quarantined corrupt journal entry %s (%s) -> %s",
            path.name, err, dest,
        )

    def load_all(self) -> list[JobRecord]:
        """Every parseable record, oldest submission first."""
        records = []
        for path in sorted(self.root.glob("j*.json")):
            record = self.load(path.stem)
            if record is not None:
                records.append(record)
        records.sort(key=lambda r: (r.submitted_at, r.job_id))
        return records

    def recover(self) -> list[JobRecord]:
        """Re-queue every interrupted job; returns them oldest first.

        Called once at gateway startup: jobs the previous process left
        ``queued`` or ``running`` are flipped back to ``queued`` (and
        journaled so) -- their sweeps will re-run against the shared
        result cache, so completed points cost nothing the second time.
        """
        interrupted = []
        for record in self.load_all():
            if record.state in TERMINAL_STATES:
                continue
            record.state = "queued"
            record.progress = {}
            self.save(record)
            interrupted.append(record)
        return interrupted


def execute_job(
    record: JobRecord,
    *,
    cache_dir: str | Path,
    jobs: int,
    retries: int,
    timeout_s: float | None,
    durability: str,
    should_stop: Callable[[], bool] | None = None,
    on_progress: Callable[[dict], None] | None = None,
) -> dict:
    """Run one job to completion; blocking (the scheduler threads it).

    ``jobs``, ``retries``, ``timeout_s`` and ``durability`` are the
    gateway's settings; :class:`~repro.serve.gateway.GatewayConfig`
    holds their defaults.  Always ``keep_going``: a service degrades a
    job with failed points into a partial result plus structured errors
    -- the caller decides whether partial is acceptable, not the worker
    pool.  The returned payload is plain JSON-able data, ready for the
    journal and the status endpoint.

    Raises :class:`~repro.runner.sweep.SweepCancelled` when
    ``should_stop`` fires (the scheduler marks the job cancelled) and
    lets any other exception propagate as a job failure.
    """
    runner = dict(
        jobs=jobs, cache_dir=cache_dir, retries=retries, timeout_s=timeout_s,
        keep_going=True, should_stop=should_stop, durability=durability,
    )
    execute = _execute_population if record.spec.kind == "population" else _execute_sweep
    return execute(record.spec, runner, on_progress)


def _point_errors(errors) -> list[dict]:
    return [
        {
            "index": e.index,
            "kind": e.kind,
            "message": e.message,
            "attempts": e.attempts,
        }
        for e in errors
    ]


def _execute_population(
    spec: JobSpec, runner: dict, on_progress: Callable[[dict], None] | None
) -> dict:
    from repro.fleet import FleetPlan, run_fleet

    plan = FleetPlan.from_params(spec.params)

    def report(done: int, total: int, devices: int) -> None:
        if on_progress is not None:
            on_progress(
                {"shards_done": done, "shards_total": total, "devices_done": devices}
            )

    fleet = run_fleet(
        plan,
        # fixed sweep name: identical population specs -- same plan, any
        # client, any restart -- share shard cache entries byte-for-byte
        name="serve-population",
        on_shard=report,
        **runner,
    )
    result = fleet.summary()
    result["errors"] = _point_errors(fleet.sweep.errors)
    result["cached_shards"] = fleet.sweep.cached_count
    result["pool_rebuilds"] = fleet.sweep.pool_rebuilds
    result["retry_attempts"] = fleet.sweep.retry_attempts
    return result


def _execute_sweep(
    spec: JobSpec, runner: dict, on_progress: Callable[[dict], None] | None
) -> dict:
    from repro.runner.sweep import Sweep, run_sweep

    p = spec.params
    if p["fn"] == "crash":
        # crash points os._exit their process; at jobs=1 that process is
        # the gateway itself -- always contain them in a worker pool
        runner = {**runner, "jobs": max(runner["jobs"], 2)}
    sweep = Sweep(
        name=f"serve-sweep-{p['fn']}",
        fn=_resolve_point_fn(p["fn"]),
        grid=tuple(p["grid"]),
        base_seed=p["base_seed"],
    )
    done = 0

    def on_point(point) -> None:
        nonlocal done
        done += 1
        if on_progress is not None:
            on_progress({"shards_done": done, "shards_total": len(sweep.grid)})

    outcome = run_sweep(sweep, on_point=on_point, **runner)
    result = {
        "points": len(outcome.points),
        "failed": outcome.failed_count,
        "complete": outcome.ok,
        "cached": outcome.cached_count,
        "pool_rebuilds": outcome.pool_rebuilds,
        "retry_attempts": outcome.retry_attempts,
        "wall_s": outcome.total_wall_s,
        "errors": _point_errors(outcome.errors),
        "storage": dict(outcome.storage),
    }
    # point values ride along only when they are plain data (the test
    # doubles return dicts; simulation objects summarize elsewhere)
    try:
        values = [p.value for p in outcome.points]
        json.dumps(values)
    except TypeError:
        pass
    else:
        result["values"] = values
    return result
