"""Process-global observer: phase spans, counters, and an event stream.

The default observer is a shared no-op singleton, so instrumented hot
paths cost one attribute lookup and one no-op method call when
observability is off -- no allocation, no branching at call sites, and
bit-identical simulation results (the observer never touches RNG or
simulation state either way).

Enable collection for a scope with :func:`observed`::

    with observed() as obs:
        run_lifetime(build, volumes)
    snapshot = obs.registry.snapshot()
    events = obs.events

Events are *deterministic by construction*: they carry simulation time
(``t``), never wall-clock, and are appended in simulation order, so a
fixed-seed run always produces the identical event list.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

from .metrics import MetricsRegistry

__all__ = [
    "NULL_OBSERVER",
    "NullObserver",
    "Observer",
    "get_observer",
    "observed",
    "set_observer",
]


class _NullSpan:
    """Reusable no-op context manager (one shared instance, ever)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullObserver:
    """Observability disabled: every operation is a no-op.

    Shared singleton (:data:`NULL_OBSERVER`); ``span`` returns one shared
    context manager, so the disabled path allocates nothing per event.
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str, calls: int = 1) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, amount: int | float = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def event(self, kind: str, t: float, **fields: object) -> None:
        return None


NULL_OBSERVER = NullObserver()


class _Span:
    """Times one ``with obs.span(name):`` block into the registry."""

    __slots__ = ("_registry", "_name", "_calls", "_start")

    def __init__(self, registry: MetricsRegistry, name: str, calls: int = 1) -> None:
        self._registry = registry
        self._name = name
        self._calls = calls

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self._registry.span_record(
            self._name, time.perf_counter() - self._start, calls=self._calls
        )
        return False


class Observer:
    """Collecting observer: metrics registry plus an ordered event list.

    Parameters
    ----------
    trace:
        When False, events still bump their ``events.<kind>`` counter but
        are not retained -- metrics without the memory cost of a trace.
    """

    __slots__ = ("registry", "trace", "events")

    enabled = True

    def __init__(self, trace: bool = True) -> None:
        self.registry = MetricsRegistry()
        self.trace = trace
        self.events: list[dict] = []

    def span(self, name: str, calls: int = 1) -> _Span:
        """Time a block; ``calls`` is the number of logical invocations
        the block stands for (the batched fleet engine times one array
        pass covering N devices, so span *call counts* stay comparable
        with N per-device runs)."""
        return _Span(self.registry, name, calls)

    def count(self, name: str, amount: int | float = 1) -> None:
        self.registry.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        self.registry.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.registry.histogram(name).observe(value)

    def event(self, kind: str, t: float, **fields: object) -> None:
        """Record one structured, sim-time-stamped event."""
        self.registry.counter(f"events.{kind}").inc()
        if self.trace:
            self.events.append({"t": float(t), "kind": kind, **fields})


_OBSERVER: NullObserver | Observer = NULL_OBSERVER


def get_observer() -> NullObserver | Observer:
    """The process-global observer (the no-op singleton by default)."""
    return _OBSERVER


def set_observer(observer: NullObserver | Observer) -> NullObserver | Observer:
    """Install ``observer`` globally; returns the previous one."""
    global _OBSERVER
    previous = _OBSERVER
    _OBSERVER = observer
    return previous


@contextmanager
def observed(trace: bool = True) -> Iterator[Observer]:
    """Collect metrics and events for the duration of the block."""
    observer = Observer(trace=trace)
    previous = set_observer(observer)
    try:
        yield observer
    finally:
        set_observer(previous)
