"""Hierarchical metrics registry with associatively mergeable snapshots.

Three instrument kinds, chosen so that every snapshot is plain JSON-able
data and two snapshots from *any* partition of the same work merge into
the same result regardless of grouping or order:

* :class:`Counter` -- monotonically accumulating value; merge = sum;
* :class:`Gauge` -- last-observed level; merge = max (the only
  order-insensitive reduction of "a level seen somewhere");
* :class:`Histogram` -- fixed log-spaced bins shared by construction, so
  bin counts merge element-wise; arbitrary split/merge orders preserve
  every bin count exactly (integer addition is associative and
  commutative, which is what makes parallel sweep rollups deterministic).
  Float totals are summed exactly and rounded once per merge, so one
  merge of a set of snapshots is the same in any order.

Span timings (wall seconds per named phase) ride along in the snapshot
under ``"spans"``; their call counts are deterministic but their wall
times are not, so :func:`strip_timings` produces the deterministic view
used when comparing serial and parallel runs.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SnapshotAccumulator",
    "default_histogram_bounds",
    "empty_snapshot",
    "merge_snapshots",
    "strip_timings",
]


def default_histogram_bounds() -> list[float]:
    """Fixed log-spaced bin upper bounds: half-decade steps, 1e-6..1e4.

    Every histogram sharing these bounds merges bin-for-bin; values above
    the last bound land in the overflow bin.
    """
    return [10.0 ** (e / 2.0) for e in range(-12, 9)]


class Counter:
    """Monotonically accumulating metric (merge = sum)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only accumulate; use a gauge for levels")
        self.value += amount


class Gauge:
    """Last-observed level (merge = max over observed levels)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bound histogram; ``counts[i]`` holds values <= ``bounds[i]``.

    The final slot is the overflow bin.  Bounds are fixed at creation so
    histograms of the same name always merge element-wise.
    """

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds: list[float] | None = None) -> None:
        self.bounds = list(bounds) if bounds is not None else default_histogram_bounds()
        if self.bounds != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value


class _SpanStat:
    __slots__ = ("calls", "wall_s")

    def __init__(self) -> None:
        self.calls = 0
        self.wall_s = 0.0


class MetricsRegistry:
    """Named instruments plus plain-dict snapshots.

    Instrument names are dotted paths (``"engine.day"``, ``"scrub.pass"``);
    the hierarchy is purely lexical -- reports group by prefix.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._spans: dict[str, _SpanStat] = {}

    # -- instrument access (get-or-create) ----------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str, bounds: list[float] | None = None) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(bounds)
        return instrument

    def span_record(self, name: str, wall_s: float, calls: int = 1) -> None:
        """Charge one completed span invocation.

        ``calls`` > 1 attributes the block's wall time to that many
        logical invocations (one batched array pass standing in for N
        per-device calls), keeping call counts workload-deterministic.
        """
        stat = self._spans.get(name)
        if stat is None:
            stat = self._spans[name] = _SpanStat()
        stat.calls += calls
        stat.wall_s += wall_s

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain JSON-able dict of every instrument's current state."""
        return {
            "counters": {k: v.value for k, v in sorted(self._counters.items())},
            "gauges": {
                k: v.value for k, v in sorted(self._gauges.items()) if v.value is not None
            },
            "histograms": {
                k: {
                    "bounds": list(v.bounds),
                    "counts": list(v.counts),
                    "count": v.count,
                    "total": v.total,
                }
                for k, v in sorted(self._histograms.items())
            },
            "spans": {
                k: {"calls": v.calls, "wall_s": v.wall_s}
                for k, v in sorted(self._spans.items())
            },
        }


def empty_snapshot() -> dict:
    """The identity element of :func:`merge_snapshots`."""
    return {"counters": {}, "gauges": {}, "histograms": {}, "spans": {}}


def merge_snapshots(*snapshots: dict) -> dict:
    """Merge metric snapshots associatively and commutatively.

    Counters and histogram bins add, gauges take the max, spans add both
    calls and wall time.  Histograms of the same name must share bounds;
    mismatched bounds raise ``ValueError`` rather than silently skewing
    bins.
    """
    merged = empty_snapshot()
    for snapshot in snapshots:
        _merge_into(merged, snapshot)
    # keep key order deterministic regardless of merge order
    return _sorted_snapshot(merged)


def _merge_into(merged: dict, snapshot: dict) -> None:
    """Fold one snapshot into a mutable merge accumulator."""
    for name, value in snapshot.get("counters", {}).items():
        merged["counters"][name] = merged["counters"].get(name, 0) + value
    for name, value in snapshot.get("gauges", {}).items():
        seen = merged["gauges"].get(name)
        merged["gauges"][name] = value if seen is None else max(seen, value)
    for name, hist in snapshot.get("histograms", {}).items():
        seen = merged["histograms"].get(name)
        if seen is None:
            merged["histograms"][name] = {
                "bounds": list(hist["bounds"]),
                "counts": list(hist["counts"]),
                "count": hist["count"],
                "total": Fraction(hist["total"]),
            }
            continue
        if seen["bounds"] != list(hist["bounds"]):
            raise ValueError(f"histogram '{name}' merged with mismatched bounds")
        seen["counts"] = [a + b for a, b in zip(seen["counts"], hist["counts"])]
        seen["count"] += hist["count"]
        seen["total"] += Fraction(hist["total"])
    for name, span in snapshot.get("spans", {}).items():
        seen = merged["spans"].get(name)
        if seen is None:
            merged["spans"][name] = {"calls": span["calls"], "wall_s": span["wall_s"]}
        else:
            seen["calls"] += span["calls"]
            seen["wall_s"] += span["wall_s"]


def _sorted_snapshot(merged: dict) -> dict:
    """Deterministic key order plus fresh inner containers, so a caller
    holding the result never aliases the accumulator's mutable state."""
    return {
        "counters": dict(sorted(merged["counters"].items())),
        "gauges": dict(sorted(merged["gauges"].items())),
        "histograms": {
            k: {**v, "bounds": list(v["bounds"]), "counts": list(v["counts"]),
                "total": float(v["total"])}
            for k, v in sorted(merged["histograms"].items())
        },
        "spans": {k: dict(v) for k, v in sorted(merged["spans"].items())},
    }


class SnapshotAccumulator:
    """Streaming, memory-bounded :func:`merge_snapshots`.

    Fleet-scale rollups cannot afford to hold one snapshot per shard and
    merge at the end; this accumulator folds each snapshot in as it
    arrives (``add``) and holds only the running merge.  Because the
    underlying merge is associative and commutative, feeding snapshots
    in *any* order -- shard completion order included -- produces the
    same result as a single :func:`merge_snapshots` call over the whole
    set, which keeps parallel fleet rollups deterministic.
    """

    def __init__(self) -> None:
        self._merged = empty_snapshot()
        self._count = 0

    def add(self, snapshot: dict) -> None:
        """Fold one snapshot into the running merge."""
        _merge_into(self._merged, snapshot)
        self._count += 1

    @property
    def count(self) -> int:
        """Snapshots folded in so far."""
        return self._count

    def snapshot(self) -> dict:
        """Current merged snapshot (deterministic key order), or a fresh
        empty snapshot when nothing has been added."""
        return _sorted_snapshot(self._merged)


def strip_timings(snapshot: dict) -> dict:
    """Deterministic view of a snapshot: span wall times removed.

    Span *call counts* are a property of the simulated work and stay;
    wall seconds depend on the host and scheduling, so comparisons
    between serial and parallel runs go through this view.
    """
    return {
        "counters": dict(snapshot.get("counters", {})),
        "gauges": dict(snapshot.get("gauges", {})),
        "histograms": {
            k: {key: (list(v[key]) if isinstance(v[key], list) else v[key]) for key in v}
            for k, v in snapshot.get("histograms", {}).items()
        },
        "spans": {k: {"calls": v["calls"]} for k, v in snapshot.get("spans", {}).items()},
    }
