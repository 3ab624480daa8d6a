"""The simulation-as-a-service gateway: admission -> schedule -> serve.

One long-lived asyncio process fronting the whole coordinator stack.
A submission passes through four explicit gates, each with a distinct,
client-visible answer -- load is shed *predictably*, never by timing
out or buffering until the box falls over:

1. **dedup / re-attach** -- a spec's job id is a stable hash of
   (client, kind, params) and the source fingerprint; resubmitting
   known work under the same code returns the existing job (done,
   running, or queued) without charging any budget.  This is the
   cache-hit fast path and it stays open even when unhealthy;
2. **health** -- an unhealthy gateway (rolling error rate or pool-crash
   rate over threshold) answers 503 + ``Retry-After`` and admits
   nothing new, while in-flight jobs drain normally;
3. **rate + quota** -- the per-client token bucket bounds submission
   *frequency*; the quota manager bounds *work* (concurrent jobs and
   devices/points per sliding window).  Both answer 429 with the exact
   or hinted ``Retry-After``;
4. **backpressure** -- the scheduler's queue is bounded; a full queue
   answers 429 rather than growing.

Endpoints (all JSON)::

    GET  /healthz           health decision + signals (503 when shedding)
    GET  /metrics           the gateway's metrics-registry snapshot
    POST /jobs              submit {client, kind, params}
    GET  /jobs              every journaled job, newest first
    GET  /jobs/<id>         one job's state/progress/result
    POST /jobs/<id>/cancel  cancel queued or running work

Restart story: journaled non-terminal jobs are re-queued on startup and
their sweeps resume against the shared result cache, so a SIGKILL'd
gateway converges to the same results it would have produced uninterrupted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import asyncio

from repro.chaos import DEFAULT_DURABILITY

from .health import HealthMonitor, HealthThresholds
from .jobs import JobRecord, JobSpec, JobStore
from .limiter import RateLimiter
from .protocol import ProtocolError, Request, read_request, write_response
from .quotas import ClientQuota, QuotaManager
from .scheduler import Scheduler

__all__ = ["GatewayConfig", "Gateway"]

#: Retry-After hint (seconds) on 503 shed and queue-full answers
SHED_RETRY_AFTER_S = 5.0


@dataclass(slots=True)
class GatewayConfig:
    """Everything a gateway instance needs, in one plain bundle."""

    state_dir: str | Path
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port off Gateway.address
    #: jobs executing at once (each gets its own worker pool)
    max_running: int = 2
    #: admitted-but-not-started jobs the queue will hold, all clients
    max_queue: int = 16
    #: worker processes per job's sweep
    job_workers: int = 2
    #: per-point retry budget handed to each job's sweep
    retries: int = 2
    #: per-point timeout handed to each job's sweep
    timeout_s: float | None = None
    #: durability rung for the job journal and every job's result cache
    #: (one of :data:`repro.chaos.fs.DURABILITY_LEVELS`)
    durability: str = DEFAULT_DURABILITY
    #: submissions per second a client may sustain...
    rate_per_s: float = 10.0
    #: ...and the burst a quiet client may save up
    burst: float = 20.0
    #: every client's budget
    quota: ClientQuota = field(default_factory=ClientQuota)
    thresholds: HealthThresholds = field(default_factory=HealthThresholds)
    #: injectable clock for the limiter/quota/health arithmetic
    clock: Callable[[], float] = time.monotonic


class Gateway:
    """One gateway instance: build, ``await start()``, drive, ``stop()``."""

    def __init__(self, config: GatewayConfig) -> None:
        self.config = config
        state = Path(config.state_dir)
        self.store = JobStore(state / "jobs", durability=config.durability)
        self.cache_dir = str(state / "cache")
        self.health = HealthMonitor(config.thresholds, clock=config.clock)
        self.limiter = RateLimiter(config.rate_per_s, config.burst, config.clock)
        self.quotas = QuotaManager(config.quota, clock=config.clock)
        self.scheduler = Scheduler(
            self.store,
            self.health,
            config,
            cache_dir=self.cache_dir,
            on_finish=self._job_finished,
        )
        #: records this process knows; the journal is the durable copy
        self._records: dict[str, JobRecord] = {}
        #: job ids holding a quota reservation (released exactly once)
        self._reserved: set[str] = set()
        self._server: asyncio.base_events.Server | None = None
        self.recovered: list[JobRecord] = []

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Recover the journal, start dispatching, bind the socket."""
        self.scheduler.start()
        self.recovered = self.store.recover()
        for record in self.recovered:
            # recovered jobs were admitted by a previous life; they
            # re-enter the queue above its bound rather than be dropped
            self._records[record.job_id] = record
            self.scheduler.offer(record, force=True)
            self.health.count("serve.jobs_recovered")
        for record in self.store.load_all():
            self._records.setdefault(record.job_id, record)
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise RuntimeError("gateway is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, *, cancel_running: bool = False) -> None:
        """Graceful shutdown: close the socket, then drain (or cancel)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.stop(cancel_running=cancel_running)

    # -- connection handling ---------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                self.health.count("serve.requests")
                status, payload, headers = self._route(request)
            except ProtocolError as exc:
                self.health.count("serve.bad_requests")
                status, payload, headers = (
                    exc.status,
                    {"error": exc.message},
                    None,
                )
            except Exception as exc:  # noqa: BLE001 - connection must answer
                self.health.count("serve.internal_errors")
                status, payload, headers = 500, {"error": repr(exc)}, None
            await write_response(writer, status, payload, headers)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _route(self, request: Request) -> tuple[int, Any, dict | None]:
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            self.health.sync_journal(self.store)
            report = self.health.report()
            if report["healthy"]:
                return 200, report, None
            return 503, report, {"retry-after": _fmt(SHED_RETRY_AFTER_S)}
        if path == "/metrics" and method == "GET":
            return 200, self.health.registry.snapshot(), None
        if path == "/jobs" and method == "POST":
            return self._submit(request)
        if path == "/jobs" and method == "GET":
            return self._list_jobs()
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            if method == "GET" and "/" not in rest:
                return self._job_view(rest)
            if method == "POST" and rest.endswith("/cancel"):
                return self._cancel(rest[: -len("/cancel")].rstrip("/"))
        if path in ("/healthz", "/metrics", "/jobs") or path.startswith("/jobs/"):
            return 405, {"error": f"{method} not allowed on {path}"}, None
        return 404, {"error": f"no route for {path}"}, None

    # -- admission -------------------------------------------------------------

    def _submit(self, request: Request) -> tuple[int, Any, dict | None]:
        try:
            spec = JobSpec.from_wire(request.json())
        except ValueError as exc:
            self.health.count("serve.rejected.invalid")
            return 400, {"error": str(exc)}, None
        job_id = spec.job_id()

        # gate 1: dedup / re-attach -- known work answers from the
        # journal (and, beneath it, the result cache), costing nothing;
        # this path stays open while the gateway is shedding
        existing = self._records.get(job_id) or self.store.load(job_id)
        if existing is not None:
            self._records[job_id] = existing
            self.health.count("serve.deduplicated")
            return 200, existing.public_view() | {"deduplicated": True}, None

        # gate 2: health -- an unhealthy gateway admits nothing new;
        # storage degradation (journal absorbing failed saves, caches in
        # ENOSPC passthrough) sheds here too: admitting work whose
        # results cannot be persisted only burns compute
        self.health.sync_journal(self.store)
        if not self.health.healthy:
            self.health.count("serve.shed.unhealthy")
            return (
                503,
                {
                    "error": "gateway is unhealthy; not admitting new jobs",
                    "reasons": self.health.unhealthy_reasons(),
                    "retry_after_s": SHED_RETRY_AFTER_S,
                },
                {"retry-after": _fmt(SHED_RETRY_AFTER_S)},
            )

        # gate 3a: per-client submission rate
        ok, retry_after = self.limiter.try_acquire(spec.client)
        if not ok:
            self.health.count("serve.shed.rate")
            return (
                429,
                {
                    "error": "rate limit exceeded",
                    "retry_after_s": retry_after,
                },
                {"retry-after": _fmt(retry_after)},
            )

        # gate 3b: per-client work quota (charges on success)
        admission = self.quotas.admit(spec.client, spec.units())
        if not admission.ok:
            self.health.count("serve.shed.quota")
            headers = (
                {"retry-after": _fmt(admission.retry_after_s)}
                if admission.retry_after_s > 0
                else None
            )
            return (
                429,
                {
                    "error": f"quota exceeded: {admission.reason}",
                    "retry_after_s": admission.retry_after_s,
                },
                headers,
            )

        # gate 4: bounded queue -- refuse, never buffer
        record = JobRecord.fresh(spec)
        accepted, reason = self.scheduler.offer(record)
        if not accepted:
            self.quotas.release(spec.client)  # undo gate 3b's reservation
            self.health.count("serve.shed.backpressure")
            return (
                429,
                {
                    "error": f"backpressure: {reason}",
                    "retry_after_s": SHED_RETRY_AFTER_S,
                },
                {"retry-after": _fmt(SHED_RETRY_AFTER_S)},
            )

        self._records[job_id] = record
        self._reserved.add(job_id)
        self.store.save(record)
        self.health.count("serve.admitted")
        return 202, record.public_view(), None

    def _job_finished(self, record: JobRecord) -> None:
        """Scheduler callback on any terminal state: release budgets."""
        if record.job_id in self._reserved:
            self._reserved.discard(record.job_id)
            self.quotas.release(record.spec.client)

    # -- queries ---------------------------------------------------------------

    def _list_jobs(self) -> tuple[int, Any, dict | None]:
        records = sorted(
            self._records.values(),
            key=lambda r: (r.submitted_at, r.job_id),
            reverse=True,
        )
        return (
            200,
            {
                "jobs": [
                    {
                        "job_id": r.job_id,
                        "client": r.spec.client,
                        "kind": r.spec.kind,
                        "state": r.state,
                        "submitted_at": r.submitted_at,
                        "progress": r.progress,
                    }
                    for r in records
                ]
            },
            None,
        )

    def _job_view(self, job_id: str) -> tuple[int, Any, dict | None]:
        record = self._records.get(job_id)
        if record is None:
            try:
                record = self.store.load(job_id)
            except ValueError:
                record = None
            if record is not None:
                self._records[job_id] = record
        if record is None:
            return 404, {"error": f"no job {job_id!r}"}, None
        return 200, record.public_view(), None

    def _cancel(self, job_id: str) -> tuple[int, Any, dict | None]:
        record = self._records.get(job_id)
        if record is None:
            return 404, {"error": f"no job {job_id!r}"}, None
        if record.state in ("done", "failed", "cancelled"):
            return 409, {"error": f"job is already {record.state}"}, None
        outcome = self.scheduler.cancel(job_id)
        if outcome is None:
            return 409, {"error": "job is not queued or running"}, None
        self.health.count("serve.cancelled")
        return 202, {"job_id": job_id, "cancel": outcome}, None


def _fmt(seconds: float) -> str:
    """Retry-After header value: whole seconds, at least 1."""
    return str(max(1, int(seconds + 0.999)))
