"""Fair-share job scheduler: bounded queue -> threaded execution cores.

The scheduler sits between admission (which already said *yes*) and the
process-pool machinery (which does the actual simulating).  Its
contracts:

* **bounded** -- the submission queue holds at most ``max_queue`` jobs
  across all clients; an offer beyond that is refused so the gateway
  answers with backpressure instead of buffering without limit;
* **fair** -- queued jobs are drawn round-robin *per client*, oldest
  first within a client, so one tenant queueing fifty jobs cannot
  starve another's single job (the multi-tenant isolation the FDP
  flash-cache setting makes first-class);
* **cancellable** -- every running job carries a ``threading.Event``
  polled by the sweep coordinator's ``should_stop`` hook; cancelling
  tears down the job's in-flight worker processes, it does not just
  drop the bookkeeping.  Queued jobs cancel instantly;
* **journaled** -- each state transition is saved to the
  :class:`~repro.serve.jobs.JobStore` before the next scheduling
  decision, so a crash between any two steps restarts into a
  consistent queue.

Execution itself is ``execute_job`` on a worker thread
(``asyncio.to_thread``); the event loop only ever does bookkeeping, so
status and health endpoints stay responsive while jobs grind.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Callable

import asyncio

from repro.runner.sweep import SweepCancelled

from .health import HealthMonitor
from .jobs import JobRecord, JobStore, execute_job

if TYPE_CHECKING:
    from .gateway import GatewayConfig

__all__ = ["Scheduler"]


class Scheduler:
    """Bounded, fair-share, cancellable dispatch of admitted jobs.

    Its limits and each job's settings are the gateway's ``config``.
    """

    def __init__(
        self,
        store: JobStore,
        health: HealthMonitor,
        config: GatewayConfig,
        *,
        cache_dir: str,
        on_finish: Callable[[JobRecord], None] | None = None,
    ) -> None:
        if config.max_running < 1 or config.max_queue < 1:
            raise ValueError("max_running and max_queue must be >= 1")
        self.store = store
        self.health = health
        self.config = config
        self.cache_dir = cache_dir
        self.on_finish = on_finish
        self._queues: dict[str, deque[JobRecord]] = {}
        self._rotation: deque[str] = deque()
        self._running: dict[str, tuple[asyncio.Task, threading.Event]] = {}
        self._wake = asyncio.Event()
        self._dispatch_task: asyncio.Task | None = None
        self._stopping = False

    # -- introspection ---------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return sum(len(q) for q in self._queues.values())

    @property
    def running_count(self) -> int:
        return len(self._running)

    def _gauges(self) -> None:
        self.health.set_queue_depth(self.queue_depth)
        self.health.set_running(self.running_count)

    # -- intake ----------------------------------------------------------------

    def offer(self, record: JobRecord, *, force: bool = False) -> tuple[bool, str]:
        """Take an admitted job onto the bounded queue.

        False means *backpressure*: the queue is full and the gateway
        must reject rather than buffer.  (Admission-level checks --
        quota, rate, health -- already happened; this is the last gate.)
        ``force`` bypasses the bound for journal recovery: jobs a
        previous process already admitted are never dropped, even when
        there are more of them than one queue's worth.
        """
        if self._stopping:
            return False, "scheduler is draining"
        if not force and self.queue_depth >= self.config.max_queue:
            return False, f"submission queue is full ({self.config.max_queue} job(s))"
        client = record.spec.client
        queue = self._queues.get(client)
        if queue is None:
            queue = self._queues[client] = deque()
        if client not in self._rotation:
            self._rotation.append(client)
        queue.append(record)
        self._gauges()
        self._wake.set()
        return True, ""

    # -- dispatch --------------------------------------------------------------

    def start(self) -> None:
        if self._dispatch_task is None:
            self._dispatch_task = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )

    async def _dispatch_loop(self) -> None:
        while True:
            while self.running_count < self.config.max_running:
                record = self._next_record()
                if record is None:
                    break
                self._start_job(record)
            self._wake.clear()
            await self._wake.wait()

    def _next_record(self) -> JobRecord | None:
        """Round-robin over clients with queued work, FIFO within one."""
        for _ in range(len(self._rotation)):
            client = self._rotation.popleft()
            queue = self._queues.get(client)
            if not queue:
                continue
            record = queue.popleft()
            if queue:
                self._rotation.append(client)
            return record
        return None

    def _start_job(self, record: JobRecord) -> None:
        cancel = threading.Event()
        task = asyncio.get_running_loop().create_task(self._run_job(record, cancel))
        self._running[record.job_id] = (task, cancel)
        self._gauges()

    async def _run_job(self, record: JobRecord, cancel: threading.Event) -> None:
        record.state = "running"
        record.attempts += 1
        self.store.save(record)
        try:
            result = await asyncio.to_thread(
                execute_job,
                record,
                cache_dir=self.cache_dir,
                jobs=self.config.job_workers,
                retries=self.config.retries,
                timeout_s=self.config.timeout_s,
                durability=self.config.durability,
                should_stop=cancel.is_set,
                # dict.update is atomic enough for a progress feed read
                # by the status endpoint between events
                on_progress=record.progress.update,
            )
        except SweepCancelled:
            record.state = "cancelled"
            record.error = "cancelled while running; in-flight workers torn down"
        except Exception as exc:  # noqa: BLE001 - a job must never sink the loop
            record.state = "failed"
            record.error = repr(exc)
        else:
            record.state = "done"
            record.result = result
            record.error = None
        finally:
            self.store.save(record)
            self._running.pop(record.job_id, None)
            self._finish(record)
            self._gauges()
            self._wake.set()

    def _finish(self, record: JobRecord) -> None:
        ok = record.state == "done" and bool(
            record.result is None or record.result.get("complete", True)
        )
        stats = record.result or {}
        if record.state != "cancelled":
            self.health.job_finished(
                ok,
                pool_rebuilds=int(stats.get("pool_rebuilds", 0)),
                retries=int(stats.get("retry_attempts", 0)),
            )
            # each job ran against its own cache handle, so its storage
            # report is a fresh reading of disk health -- fold it in
            self.health.storage_from_job(stats.get("storage"))
        if self.on_finish is not None:
            self.on_finish(record)

    # -- cancellation and shutdown ---------------------------------------------

    def cancel(self, job_id: str) -> str | None:
        """Cancel a queued or running job; None when it is neither."""
        entry = self._running.get(job_id)
        if entry is not None:
            entry[1].set()  # the coordinator kills in-flight workers
            return "cancelling"
        for queue in self._queues.values():
            for record in queue:
                if record.job_id == job_id:
                    queue.remove(record)
                    record.state = "cancelled"
                    record.error = "cancelled while queued"
                    self.store.save(record)
                    self._finish(record)
                    self._gauges()
                    return "cancelled"
        return None

    async def drain(self) -> None:
        """Stop taking work and wait for every running job to finish."""
        self._stopping = True
        tasks = [task for task, _ in self._running.values()]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def stop(self, *, cancel_running: bool = False) -> None:
        """Shut the dispatch loop down; optionally cancel running jobs."""
        self._stopping = True
        if cancel_running:
            for job_id in list(self._running):
                self.cancel(job_id)
        await self.drain()
        if self._dispatch_task is not None:
            self._dispatch_task.cancel()
            try:
                await self._dispatch_task
            except asyncio.CancelledError:
                pass
            self._dispatch_task = None
