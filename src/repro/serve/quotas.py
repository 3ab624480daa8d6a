"""Per-client quotas: concurrency caps and sliding-window work budgets.

Rate limiting (:mod:`repro.serve.limiter`) bounds *request* arrival;
quotas bound *work*.  A fleet job for a million devices and a lifetime
sweep of four points are wildly different loads that both arrive as one
small POST, so admission charges each job its **unit** count -- devices
for population jobs, grid points for sweeps -- against two per-client
budgets:

* ``max_concurrent`` -- jobs a client may have queued-or-running at
  once (reserved at admission, released at any terminal state);
* ``max_units_per_window`` -- units a client may admit within a sliding
  ``window_s`` seconds, so a tenant cannot monopolize the pool by
  trickling huge jobs one at a time.

Both checks answer rejects with a concrete ``retry_after``: when the
oldest window entry expires (window budget) or ``None``/heuristic for
the concurrency cap (free capacity depends on job completion, which the
manager cannot foresee -- it reports the configured poll hint instead).
The clock is injected for deterministic tests, mirroring the limiter.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

__all__ = ["ClientQuota", "Admission", "QuotaManager"]


@dataclass(frozen=True, slots=True)
class ClientQuota:
    """Budget shape for one client (or the default for everyone)."""

    max_concurrent: int = 4
    max_units_per_window: int = 1_000_000
    window_s: float = 60.0

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if self.max_units_per_window < 1:
            raise ValueError("max_units_per_window must be >= 1")
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")


@dataclass(frozen=True, slots=True)
class Admission:
    """Outcome of one admission check."""

    ok: bool
    reason: str = ""
    retry_after_s: float = 0.0


class QuotaManager:
    """Tracks every client's reservations against its quota."""

    #: retry hint for concurrency-cap rejects: capacity frees when some
    #: running job finishes, which admission cannot predict -- so the
    #: hint is "poll about this often", not an exact promise
    CONCURRENCY_RETRY_HINT_S = 1.0

    def __init__(
        self,
        default: ClientQuota | None = None,
        overrides: dict[str, ClientQuota] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.default = default if default is not None else ClientQuota()
        self.overrides = dict(overrides or {})
        self._clock = clock
        self._running: dict[str, int] = {}
        #: per-client (admitted_at, units) entries, oldest first
        self._window: dict[str, deque[tuple[float, int]]] = {}

    def quota_for(self, client: str) -> ClientQuota:
        return self.overrides.get(client, self.default)

    def _prune(self, client: str, now: float) -> deque[tuple[float, int]]:
        window = self._window.setdefault(client, deque())
        horizon = now - self.quota_for(client).window_s
        while window and window[0][0] <= horizon:
            window.popleft()
        return window

    def admit(self, client: str, units: int) -> Admission:
        """Check-and-reserve: a True answer has already charged the quota.

        ``units`` is the job's work size (devices / grid points); a
        single job larger than the whole window budget is rejected
        outright (``"job exceeds window budget"``) -- no amount of
        waiting would ever admit it, so no retry-after is offered.
        """
        if units < 1:
            raise ValueError("units must be >= 1")
        quota = self.quota_for(client)
        now = self._clock()
        if units > quota.max_units_per_window:
            return Admission(
                False,
                f"job of {units} units exceeds the per-window budget of "
                f"{quota.max_units_per_window}",
            )
        if self._running.get(client, 0) >= quota.max_concurrent:
            return Admission(
                False,
                f"client has {self._running[client]} of {quota.max_concurrent} "
                "jobs in flight",
                self.CONCURRENCY_RETRY_HINT_S,
            )
        window = self._prune(client, now)
        used = sum(u for _, u in window)
        if used + units > quota.max_units_per_window:
            # the budget frees as window entries age out; walk forward to
            # the exact admission time for this unit count
            needed = used + units - quota.max_units_per_window
            freed = 0
            retry_at = now
            for stamp, entry_units in window:
                freed += entry_units
                retry_at = stamp + quota.window_s
                if freed >= needed:
                    break
            return Admission(
                False,
                f"window budget exhausted ({used}/{quota.max_units_per_window} "
                f"units used)",
                max(0.0, retry_at - now),
            )
        window.append((now, units))
        self._running[client] = self._running.get(client, 0) + 1
        return Admission(True)

    def release(self, client: str) -> None:
        """Return one concurrency slot (job reached a terminal state).

        Window units are **not** refunded -- the window bounds admitted
        work per interval, finished or not, or a tight loop of tiny
        instantly-finishing jobs would evade it entirely.
        """
        count = self._running.get(client, 0)
        if count <= 1:
            self._running.pop(client, None)
        else:
            self._running[client] = count - 1

    def running(self, client: str) -> int:
        return self._running.get(client, 0)
