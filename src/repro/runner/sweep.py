"""Deterministic, fault-tolerant parallel sweep runner.

A *sweep* is a named grid of independent experiment points, each a call
of one picklable function ``fn(params, seed)``.  The runner owns four
concerns the ad-hoc benchmark loops used to interleave:

* **parallelism** -- points fan out over a
  :class:`concurrent.futures.ProcessPoolExecutor` (``jobs`` workers);
  ``jobs=1`` runs the same coordinator in this process, one point at a
  time, with bit-identical results, because per-point seeds are derived
  from the point *index* via :meth:`numpy.random.SeedSequence.spawn`,
  never from execution order.  In-process there is no worker to kill or
  lose: ``timeout_s`` does not apply, a hard crash of ``fn`` takes the
  caller with it, and a retrying point waits out its backoff at the
  back of the queue while the other points run;
* **caching** -- with a ``cache_dir``, each point's result is persisted
  under a stable hash of (sweep name, source fingerprint, params, seed)
  *as soon as it completes*, so a crashed or aborted sweep resumes from
  its last finished point, a re-run only computes changed points, and
  any edit to the ``repro`` source recomputes every point;
* **fault tolerance** -- completions are streamed as they finish; failed
  points are retried with exponential backoff (``retries``), long-running
  points are bounded by a per-point ``timeout_s`` (the hung worker pool
  is killed and rebuilt), a worker process dying mid-point
  (:class:`~concurrent.futures.process.BrokenProcessPool`) is survived by
  rebuilding the pool and re-running the in-flight points in isolation so
  the culprit is attributed precisely, and ``keep_going=True`` turns
  exhausted failures into structured :class:`PointError` records instead
  of aborting the sweep;
* **timing** -- every point records its compute wall time, and the
  sweep aggregates into a record that :mod:`repro.runner.metrics` can
  emit as a ``BENCH_runner.json`` perf baseline;
* **streaming reduction** -- an ``on_point`` hook observes every
  completed point (cache hits included) in the coordinator as it
  resolves, and ``keep_values=False`` drops point values once the hook
  and the cache have seen them, so a reducing caller's memory is bounded
  by one point, not the whole grid (the fleet-of-fleets layer in
  :mod:`repro.fleet` is the canonical consumer).

``fn`` must be importable at module scope (workers unpickle it by
reference) and ``params`` must be plain JSON-able data (the cache key
requires it even when caching is off, which keeps sweeps cacheable by
construction).
"""

from __future__ import annotations

import math
import os
import signal
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED, Executor, Future, ProcessPoolExecutor, wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.chaos import DEFAULT_DURABILITY, crash_point
from repro.obs import get_observer, merge_point_traces, merge_snapshots, observed

from .cache import ResultCache, code_fingerprint, stable_key

__all__ = [
    "Sweep",
    "PointResult",
    "PointError",
    "SweepTimeoutError",
    "SweepCrashError",
    "SweepCancelled",
    "SweepResult",
    "derive_seeds",
    "full_jitter_backoff",
    "run_sweep",
]

#: Poll interval of the completion-streaming loop (seconds).
_TICK_S = 0.05

#: Ceiling on a single retry backoff delay (seconds).
_MAX_BACKOFF_S = 2.0


class SweepTimeoutError(TimeoutError):
    """A sweep point exceeded its per-point timeout (``keep_going`` off)."""


class SweepCrashError(RuntimeError):
    """A sweep point killed its worker process (``keep_going`` off)."""


class SweepCancelled(RuntimeError):
    """The sweep's ``should_stop`` hook asked for teardown mid-run.

    Raised from the coordinator once the request is observed; every
    in-flight worker pool is killed first, so no stray point keeps
    computing after the exception propagates.  Points that
    completed before the cancel are already persisted to the cache --
    re-running the same sweep resumes from them.
    """


def full_jitter_backoff(
    base_s: float, attempt: int, seed: int, cap_s: float = _MAX_BACKOFF_S
) -> float:
    """Deterministic full-jitter retry delay for one point's ``attempt``.

    Classic full jitter -- ``U(0, min(cap, base * 2**(attempt-1)))`` --
    except the "random" draw is derived from ``(seed, attempt)`` via
    ``SeedSequence``, so the schedule is reproducible run-to-run while
    still *differing across points*: a grid whose points all fail at
    once (a dead shared dependency, a full disk) fans its retries out
    over the window instead of stampeding the pool in synchronized
    waves.  ``attempt`` is 1-based (the delay before retry #1).
    """
    if attempt < 1:
        raise ValueError("attempt is 1-based")
    ceiling = min(base_s * (2 ** (attempt - 1)), cap_s)
    # one uint64 draw -> uniform in [0, 1); entropy mixes seed and attempt
    state = np.random.SeedSequence(entropy=seed, spawn_key=(attempt,))
    unit = state.generate_state(1, dtype=np.uint64)[0] / 2.0**64
    return ceiling * float(unit)


@dataclass(frozen=True, slots=True)
class Sweep:
    """A named grid of independent ``fn(params, seed)`` points.

    Attributes
    ----------
    name:
        Sweep identity; part of every point's cache key.
    fn:
        Module-level callable executed per point.  Must be picklable so
        worker processes can import it by reference.
    grid:
        One params dict per point (plain JSON-able values only).
    base_seed:
        Root of the per-point seed derivation.
    """

    name: str
    fn: Callable[[dict, int], Any]
    grid: tuple[dict, ...]
    base_seed: int = 0

    def __post_init__(self) -> None:
        if not self.grid:
            raise ValueError("sweep grid must contain at least one point")

    def point_key(self, index: int, seed: int) -> str:
        """Stable cache key for one point, under the running source."""
        return stable_key(
            {
                "sweep": self.name,
                "code": code_fingerprint(),
                "params": self.grid[index],
                "seed": seed,
            }
        )


@dataclass(slots=True)
class PointResult:
    """Outcome of one successful sweep point."""

    index: int
    params: dict
    seed: int
    value: Any
    #: wall time of the compute that produced ``value`` (the original
    #: compute's time when the point was served from cache)
    wall_s: float
    cached: bool
    #: attempts the point took to succeed (1 = first try; cached points
    #: report 1 -- the original attempts are not persisted)
    attempts: int = 1
    #: worker-side observability payload ({"metrics": snapshot,
    #: "events": [...]}) when the sweep ran with ``collect_obs``;
    #: None otherwise and for cache hits
    obs: dict | None = None


@dataclass(slots=True)
class PointError:
    """Structured record of one point that exhausted its retry budget.

    ``kind`` distinguishes how the point failed:

    * ``"error"``   -- ``fn`` raised an exception;
    * ``"timeout"`` -- the point exceeded ``timeout_s`` and its worker
      pool was killed;
    * ``"crash"``   -- the point's worker process died (segfault,
      ``os._exit``, OOM-kill ...), observed as a broken process pool.
    """

    index: int
    params: dict
    seed: int
    kind: str
    message: str
    attempts: int


@dataclass(slots=True)
class SweepResult:
    """All point results of one sweep run.

    ``points`` holds the successful points in grid order; under
    ``keep_going`` the points that exhausted their retries appear in
    ``errors`` instead (also grid order).  Without ``keep_going`` a
    failure raises, so ``errors`` is always empty there.
    """

    name: str
    jobs: int
    total_wall_s: float
    points: list[PointResult] = field(default_factory=list)
    errors: list[PointError] = field(default_factory=list)
    #: worker pools rebuilt after a crash or timeout kill
    pool_rebuilds: int = 0
    #: the cache's degradation/durability report (empty when uncached);
    #: see :meth:`repro.runner.cache.ResultCache.storage_report`
    storage: dict = field(default_factory=dict)

    def values(self) -> list[Any]:
        """Successful point values in grid order."""
        return [p.value for p in self.points]

    @property
    def cached_count(self) -> int:
        """Points served from the on-disk cache."""
        return sum(1 for p in self.points if p.cached)

    @property
    def computed_count(self) -> int:
        """Points computed this run."""
        return sum(1 for p in self.points if not p.cached)

    @property
    def failed_count(self) -> int:
        """Points that exhausted their retries (``keep_going`` runs)."""
        return len(self.errors)

    @property
    def retry_attempts(self) -> int:
        """Failed attempts absorbed by retries across all points."""
        return (
            sum(p.attempts - 1 for p in self.points)
            + sum(e.attempts - 1 for e in self.errors)
        )

    @property
    def ok(self) -> bool:
        """Whether every grid point produced a value."""
        return not self.errors

    def merged_metrics(self) -> dict | None:
        """Associative merge of per-point metric snapshots, in grid order.

        Grid order makes the merge independent of completion order, so
        serial and parallel runs of the same sweep produce the identical
        merged snapshot (up to span wall times; see
        :func:`repro.obs.strip_timings`).  None when no point carried an
        observability payload.
        """
        snapshots = [p.obs["metrics"] for p in self.points if p.obs is not None]
        if not snapshots:
            return None
        return merge_snapshots(*snapshots)

    def merged_trace(self) -> list[dict]:
        """Seed-ordered merged event trace across all observed points."""
        return merge_point_traces(
            {p.index: p.obs["events"] for p in self.points if p.obs is not None}
        )


def derive_seeds(base_seed: int, n: int) -> list[int]:
    """Per-point seeds from one root seed.

    ``SeedSequence.spawn`` guarantees statistically independent child
    streams, and the derivation depends only on ``(base_seed, index)`` --
    not on worker count or completion order -- which is what makes
    parallel runs bit-identical to serial ones.
    """
    children = np.random.SeedSequence(base_seed).spawn(n)
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in children]


def _worker_init() -> None:
    """Reset inherited signal plumbing in freshly forked workers.

    When the coordinator is embedded in an asyncio host (the serve
    gateway), the host's signal handlers write into a wakeup pipe that
    fork-started workers share with the parent.  Pool teardown SIGTERMs
    workers after every sweep; without this reset the inherited handler
    would echo that SIGTERM down the shared pipe and the *parent* event
    loop would see a phantom shutdown request.
    """
    try:
        signal.set_wakeup_fd(-1)
    except ValueError:  # pragma: no cover - non-main thread after fork
        pass
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # Ctrl-C teardown is the coordinator's job; workers must not race it
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _die_with_parent()


def _die_with_parent() -> None:  # pragma: no cover - exercised via subprocess
    """Tie this worker's life to its coordinator (Linux PDEATHSIG).

    A coordinator that dies without pool teardown -- SIGKILL, power cut,
    an armed :func:`repro.chaos.crash_point` -- cannot close the call
    queue under its workers: every worker also inherits a write end of
    the queue's pipe, so the read side never sees EOF and each worker
    blocks in ``get()`` forever, reparented to init.  ``PR_SET_PDEATHSIG``
    makes the kernel deliver SIGTERM to the worker the instant its
    parent exits, so crashed coordinators never leak a worker fleet.
    Best-effort: silently a no-op off Linux or without libc.
    """
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        PR_SET_PDEATHSIG = 1
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)
        # the parent may have died between our fork and the prctl; the
        # kernel only signals on *future* deaths, so check once
        if os.getppid() == 1:
            os._exit(0)
    except OSError:
        pass


def _execute_point(
    fn: Callable[[dict, int], Any], params: dict, seed: int, collect_obs: bool = False
) -> tuple[Any, float, dict | None]:
    """Run one point, timing the call (in a worker, or in-process at jobs=1).

    With ``collect_obs`` a fresh observer is installed for the call and
    its snapshot/events come back as plain data, so the coordinator can
    merge per-point metrics deterministically whatever process ran them.
    """
    start = time.perf_counter()
    if not collect_obs:
        value = fn(params, seed)
        return value, time.perf_counter() - start, None
    with observed() as obs:
        value = fn(params, seed)
    payload = {"metrics": obs.registry.snapshot(), "events": obs.events}
    return value, time.perf_counter() - start, payload


class _InProcessExecutor(Executor):
    """The ``jobs=1`` executor: each point runs in this process at submit.

    ``submit`` returns an already-completed future, so the coordinator
    loop is the same at every ``jobs``.  ``fn``'s ``Exception`` is
    stored in the future, as a worker's would be; a ``BaseException``
    (Ctrl-C, ``SystemExit``) propagates.  The future is done before the
    coordinator waits on it, so no per-point timeout can fire.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


def _finish_point(
    point: PointResult,
    on_point: Callable[[PointResult], None] | None,
    keep_values: bool,
) -> PointResult:
    """Stream one resolved point through the reduction hook.

    The hook runs in the coordinator process, in completion order for
    computed points (cache hits are delivered first, in grid order).
    With ``keep_values=False`` the value is released right after the
    hook -- by then it is already persisted to the cache -- so a
    reducing sweep holds at most one point's value at a time.
    """
    if on_point is not None:
        on_point(point)
    if not keep_values:
        point.value = None
    return point


@dataclass(slots=True)
class _PointState:
    """Coordinator-side bookkeeping for one pending point."""

    index: int
    attempts: int = 0
    #: monotonic time before which the point must not be resubmitted
    ready_at: float = 0.0
    #: monotonic deadline of the in-flight attempt (inf = no timeout)
    deadline: float = math.inf


class _Coordinator:
    """Streams completions from an executor, surviving faults.

    One instance drives the computed points of one :func:`run_sweep`
    call: over a worker pool for ``jobs > 1``, in this process for
    ``jobs=1``.  The loop invariants:

    * a point is in exactly one place: the ready queue, in flight, the
      results dict, or the errors dict;
    * after any pool breakage the coordinator switches to *isolation
      mode* (one in-flight point at a time) so the next crash attributes
      to exactly one point -- the first breakage charges nobody, because
      with several points in flight the culprit is unknowable;
    * successful points are persisted to the cache immediately, before
      any further scheduling decision, so no completed work can be lost.
    """

    def __init__(
        self,
        sweep: Sweep,
        seeds: list[int],
        keys: list[str],
        cache: ResultCache | None,
        jobs: int,
        retries: int,
        retry_backoff_s: float,
        timeout_s: float | None,
        keep_going: bool,
        collect_obs: bool = False,
        on_point: Callable[[PointResult], None] | None = None,
        keep_values: bool = True,
        should_stop: Callable[[], bool] | None = None,
    ) -> None:
        self.sweep = sweep
        self.seeds = seeds
        self.keys = keys
        self.cache = cache
        self.jobs = jobs
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.timeout_s = timeout_s
        self.keep_going = keep_going
        self.collect_obs = collect_obs
        self.on_point = on_point
        self.keep_values = keep_values
        self.should_stop = should_stop
        self.results: dict[int, PointResult] = {}
        self.errors: dict[int, PointError] = {}
        self.pool_rebuilds = 0
        self._queue: deque[int] = deque()
        self._states: dict[int, _PointState] = {}
        self._inflight: dict[Future, _PointState] = {}
        self._executor: Executor | None = None
        self._capacity = jobs
        self._isolate = False

    # -- public ----------------------------------------------------------------

    def run(self, pending: Sequence[int]) -> None:
        """Execute all pending points; fills ``results`` and ``errors``."""
        self._states = {i: _PointState(i) for i in pending}
        self._queue = deque(pending)
        # no more workers than points; the executor kind follows the
        # requested jobs, so jobs=2 over one pending point still runs
        # it in a worker that may crash without taking this process
        self._capacity = min(self.jobs, len(pending))
        try:
            while self._queue or self._inflight:
                self._check_cancelled()
                self._submit_ready()
                self._pump()
        finally:
            self._teardown()

    def _check_cancelled(self) -> None:
        """Honour a pending cancel request before any more scheduling.

        Raising here reaches ``run``'s finally clause, which terminates
        every worker process -- in-flight points are torn down, not
        merely abandoned.  Completed points were persisted to the cache
        the moment they finished, so nothing done is lost.
        """
        if self.should_stop is not None and self.should_stop():
            raise SweepCancelled(
                f"sweep '{self.sweep.name}' cancelled with "
                f"{len(self._inflight)} point(s) in flight and "
                f"{len(self._queue)} queued"
            )

    # -- scheduling ------------------------------------------------------------

    def _submit_ready(self) -> None:
        if not self._queue:
            return
        if self._executor is None:
            self._executor = (
                ProcessPoolExecutor(
                    max_workers=self._capacity, initializer=_worker_init
                )
                if self.jobs > 1 else _InProcessExecutor()
            )
        now = time.monotonic()
        capacity = 1 if self._isolate else self._capacity
        # one pass over the queue: submit what is ready, keep the rest
        for _ in range(len(self._queue)):
            if len(self._inflight) >= capacity:
                break
            index = self._queue.popleft()
            state = self._states[index]
            if state.ready_at > now:
                self._queue.append(index)  # in backoff; revisit next tick
                continue
            try:
                future = self._executor.submit(
                    _execute_point, self.sweep.fn, self.sweep.grid[index],
                    self.seeds[index], self.collect_obs,
                )
            except (BrokenProcessPool, RuntimeError):
                # pool died between completions; put the point back and
                # let the crash path rebuild
                self._queue.appendleft(index)
                self._handle_pool_break(culprit=None)
                return
            state.deadline = (
                now + self.timeout_s if self.timeout_s is not None else math.inf
            )
            self._inflight[future] = state

    def _pump(self) -> None:
        """Wait for progress: completions, timeouts, or backoff expiry."""
        if not self._inflight:
            if self._queue:
                now = time.monotonic()
                soonest = min(self._states[i].ready_at for i in self._queue)
                if soonest > now:
                    # with a cancel hook installed, sleep in short ticks
                    # so a cancel lands within ~_TICK_S, not a backoff
                    cap = _TICK_S if self.should_stop is not None else _MAX_BACKOFF_S
                    time.sleep(min(soonest - now, cap))
            return
        done, _ = wait(set(self._inflight), timeout=_TICK_S,
                       return_when=FIRST_COMPLETED)
        for future in done:
            state = self._inflight.pop(future, None)
            if state is None:
                continue
            exc = future.exception()
            if exc is None:
                value, wall_s, obs_payload = future.result()
                self._record_success(state, value, wall_s, obs_payload)
            elif isinstance(exc, BrokenProcessPool):
                self._handle_pool_break(culprit=state)
                return  # every other in-flight future is broken too
            else:
                self._record_failure(state, "error", exc)
        self._check_timeouts()

    # -- outcome recording -------------------------------------------------------

    def _record_success(
        self, state: _PointState, value: Any, wall_s: float,
        obs_payload: dict | None = None,
    ) -> None:
        index = state.index
        # persist first: a crash after this line loses nothing
        if self.cache is not None:
            self.cache.store(self.keys[index], value, wall_s)
        crash_point("sweep.point.post_persist")
        self.results[index] = _finish_point(
            PointResult(
                index=index, params=self.sweep.grid[index],
                seed=self.seeds[index], value=value, wall_s=wall_s,
                cached=False, attempts=state.attempts + 1, obs=obs_payload,
            ),
            self.on_point, self.keep_values,
        )

    def _record_failure(
        self, state: _PointState, kind: str, exc: BaseException | None,
        message: str | None = None,
    ) -> None:
        """Charge one failed attempt; requeue, record, or abort."""
        state.attempts += 1
        if state.attempts <= self.retries:
            backoff = full_jitter_backoff(
                self.retry_backoff_s, state.attempts, self.seeds[state.index]
            )
            state.ready_at = time.monotonic() + backoff
            self._queue.append(state.index)
            return
        error = PointError(
            index=state.index,
            params=self.sweep.grid[state.index],
            seed=self.seeds[state.index],
            kind=kind,
            message=message if message is not None else repr(exc),
            attempts=state.attempts,
        )
        if self.keep_going:
            self.errors[state.index] = error
            return
        if kind == "error" and exc is not None:
            raise exc  # backwards-compatible: surface fn's own exception
        if kind == "timeout":
            raise SweepTimeoutError(
                f"sweep '{self.sweep.name}' point {state.index} "
                f"({error.message}) after {state.attempts} attempt(s)"
            )
        raise SweepCrashError(
            f"sweep '{self.sweep.name}' point {state.index} "
            f"({error.message}) after {state.attempts} attempt(s)"
        )

    # -- fault paths ---------------------------------------------------------------

    def _handle_pool_break(self, culprit: _PointState | None) -> None:
        """The worker pool died under some in-flight point(s).

        In isolation mode exactly one point was in flight, so the crash
        is attributed and charged.  Otherwise the culprit is ambiguous:
        every in-flight point is requeued uncharged and the coordinator
        enters isolation mode, where any repeat offender is caught.
        """
        survivors = list(self._inflight.values())
        self._inflight.clear()
        self._teardown()
        self.pool_rebuilds += 1
        message = "worker process died (broken process pool)"
        if self._isolate and culprit is not None and not survivors:
            self._record_failure(culprit, "crash", None, message=message)
        else:
            for state in ([culprit] if culprit is not None else []) + survivors:
                state.deadline = math.inf
                self._queue.appendleft(state.index)
        self._isolate = True

    def _check_timeouts(self) -> None:
        if self.timeout_s is None or not self._inflight:
            return
        now = time.monotonic()
        expired = [f for f, s in self._inflight.items() if now >= s.deadline]
        if not expired:
            return
        # a running task cannot be cancelled: kill the whole pool, then
        # requeue the innocent in-flight points uncharged
        for future in expired:
            state = self._inflight.pop(future)
            self._record_failure(
                state, "timeout", None,
                message=f"exceeded per-point timeout of {self.timeout_s}s",
            )
        for state in self._inflight.values():
            state.deadline = math.inf
            self._queue.appendleft(state.index)
        self._inflight.clear()
        self._teardown()
        self.pool_rebuilds += 1

    def _teardown(self) -> None:
        if self._executor is None:
            return
        # terminate first: shutdown() alone would wait on a hung worker
        for process in list(getattr(self._executor, "_processes", {}).values()):
            process.terminate()
        self._executor.shutdown(wait=False, cancel_futures=True)
        self._executor = None


def run_sweep(
    sweep: Sweep,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    retries: int = 0,
    retry_backoff_s: float = 0.05,
    timeout_s: float | None = None,
    keep_going: bool = False,
    collect_obs: bool = False,
    on_point: Callable[[PointResult], None] | None = None,
    keep_values: bool = True,
    should_stop: Callable[[], bool] | None = None,
    durability: str = DEFAULT_DURABILITY,
) -> SweepResult:
    """Run every point of ``sweep`` and return results in grid order.

    Parameters
    ----------
    sweep:
        The sweep definition.
    jobs:
        Worker processes.  ``1`` runs the same coordinator in this
        process: ``timeout_s`` does not apply, a hard crash of ``fn``
        takes the caller with it, and a failed point waits out its
        retry backoff at the back of the queue while the others run.
    cache_dir:
        Directory for the on-disk result cache; ``None`` disables
        caching.  Completed points are persisted as they finish, so an
        interrupted sweep resumes from its last completed point.
    retries:
        Failed attempts a point may retry before it counts as failed.
    retry_backoff_s:
        Base of the exponential backoff between retries.
    timeout_s:
        Per-point wall-clock bound (``jobs > 1`` only): a point running
        longer has its worker pool killed and counts as a failed attempt.
    keep_going:
        When True, points that exhaust their retries become structured
        :class:`PointError` records on the result instead of aborting
        the sweep; completed points are always kept either way.
    collect_obs:
        Capture each computed point's metrics snapshot and event trace
        (an observer is installed around ``fn`` in whichever process
        runs it) onto :attr:`PointResult.obs`.  Cache hits carry no
        payload -- only freshly computed points are observed.
    on_point:
        Streaming reduction hook, called in the coordinator process for
        every resolved point: cache hits first (grid order), then
        computed points as they complete (completion order -- pair it
        with an associative, commutative reducer for deterministic
        results).  An exception from the hook aborts the sweep.
    keep_values:
        When False, each point's ``value`` is dropped right after the
        cache store and the ``on_point`` hook have seen it, bounding the
        sweep's memory by one point instead of the whole grid.  The
        returned :class:`SweepResult` then carries ``value=None`` points
        (timings, params, and obs payloads are kept).
    should_stop:
        Cooperative cancellation hook, polled once per turn of the
        scheduling loop: before every point at ``jobs=1``, and at least
        every ~50 ms while the loop waits, so a cancel also cuts a retry
        backoff short.  Returning True raises :class:`SweepCancelled`
        after killing every in-flight worker, so cancellation genuinely tears
        down running shards; already-completed points stay in the cache
        and a re-run of the same sweep resumes from them.
    durability:
        Cache write policy (``none``/``rename``/``fsync``); see
        :data:`repro.chaos.fs.DURABILITY_LEVELS`.  The default rung
        (``DEFAULT_DURABILITY``) keeps benchmarks honest (no fsync
        stalls) while readers still never observe a torn record.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError("timeout_s must be positive")
    start = time.perf_counter()
    obs = get_observer()
    n = len(sweep.grid)
    seeds = derive_seeds(sweep.base_seed, n)
    # keys are computed even with caching off, so every grid is
    # validated as cache-keyable before any compute starts
    keys = [sweep.point_key(i, seeds[i]) for i in range(n)]
    # the coordinator sweeps orphaned *.tmp files exactly once per run;
    # every other cache open (workers, reducers) is rescan-free
    cache = (
        ResultCache(cache_dir, scan_stale_tmp=True, durability=durability)
        if cache_dir is not None
        else None
    )

    results: dict[int, PointResult] = {}
    pending: list[int] = []
    for i in range(n):
        entry = cache.load(keys[i]) if cache is not None else None
        if entry is not None:
            results[i] = _finish_point(
                PointResult(
                    index=i, params=sweep.grid[i], seed=seeds[i],
                    value=entry.value, wall_s=entry.wall_s, cached=True,
                ),
                on_point, keep_values,
            )
        else:
            pending.append(i)
    obs.count("sweep.cache_hits", len(results))
    obs.count("sweep.cache_misses", len(pending))

    coordinator = _Coordinator(
        sweep, seeds, keys, cache, jobs, retries, retry_backoff_s, timeout_s,
        keep_going, collect_obs, on_point, keep_values, should_stop,
    )
    with obs.span("sweep.run"):
        try:
            coordinator.run(pending)
        finally:
            # flush + index the column store even on cancel/abort: the
            # points persisted so far stay O(1) to reopen on resume
            if cache is not None:
                cache.finalize()

    results.update(coordinator.results)
    errors = coordinator.errors
    return SweepResult(
        name=sweep.name,
        jobs=jobs,
        total_wall_s=time.perf_counter() - start,
        points=[results[i] for i in range(n) if i in results],
        errors=[errors[i] for i in sorted(errors)],
        pool_rebuilds=coordinator.pool_rebuilds,
        storage=cache.storage_report() if cache is not None else {},
    )
