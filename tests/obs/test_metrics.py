"""Metrics registry: instruments, snapshots, merge semantics."""

from __future__ import annotations

import pytest

from repro.obs import (
    MetricsRegistry,
    SnapshotAccumulator,
    default_histogram_bounds,
    empty_snapshot,
    merge_snapshots,
    strip_timings,
)
from repro.obs.metrics import Histogram


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(4)
        assert registry.snapshot()["counters"]["a"] == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("a").inc(-1)

    def test_gauge_last_value_wins_locally(self):
        registry = MetricsRegistry()
        registry.gauge("level").set(3.0)
        registry.gauge("level").set(1.5)
        assert registry.snapshot()["gauges"]["level"] == 1.5

    def test_unset_gauge_not_in_snapshot(self):
        registry = MetricsRegistry()
        registry.gauge("level")
        assert "level" not in registry.snapshot()["gauges"]

    def test_histogram_bins_values(self):
        hist = Histogram(bounds=[1.0, 10.0])
        for value in (0.5, 1.0, 5.0, 100.0):
            hist.observe(value)
        # <=1.0 | <=10.0 | overflow
        assert hist.counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.total == pytest.approx(106.5)

    def test_histogram_default_bounds_are_log_spaced(self):
        bounds = default_histogram_bounds()
        assert bounds == sorted(bounds)
        ratios = {round(b / a, 6) for a, b in zip(bounds, bounds[1:])}
        assert len(ratios) == 1  # constant multiplicative step

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=[10.0, 1.0])

    def test_span_record_accumulates(self):
        registry = MetricsRegistry()
        registry.span_record("phase", 0.5)
        registry.span_record("phase", 0.25)
        snap = registry.snapshot()["spans"]["phase"]
        assert snap["calls"] == 2
        assert snap["wall_s"] == pytest.approx(0.75)


class TestMerge:
    def _snap(self, **counters):
        registry = MetricsRegistry()
        for name, value in counters.items():
            registry.counter(name).inc(value)
        return registry.snapshot()

    def test_counters_add(self):
        merged = merge_snapshots(self._snap(a=2, b=1), self._snap(a=3))
        assert merged["counters"] == {"a": 5, "b": 1}

    def test_empty_snapshot_is_identity(self):
        snap = self._snap(a=2)
        assert merge_snapshots(snap, empty_snapshot()) == merge_snapshots(snap)

    def test_gauges_take_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("level").set(2.0)
        b.gauge("level").set(7.0)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert merged["gauges"]["level"] == 7.0

    def test_histograms_merge_bin_for_bin(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", bounds=[1.0, 10.0]).observe(0.5)
        b.histogram("h", bounds=[1.0, 10.0]).observe(5.0)
        b.histogram("h").observe(50.0)
        merged = merge_snapshots(a.snapshot(), b.snapshot())["histograms"]["h"]
        assert merged["counts"] == [1, 1, 1]
        assert merged["count"] == 3

    def test_histogram_totals_do_not_depend_on_merge_order(self):
        """Float totals are not associative ((0.1 + 0.2) + 0.3 != 0.1 +
        (0.2 + 0.3)); a merge of shard snapshots arriving in any order,
        as a parallel fleet's do, still gives one total."""
        snaps = []
        for value in (0.1, 0.2, 0.3):
            registry = MetricsRegistry()
            registry.histogram("h").observe(value)
            snaps.append(registry.snapshot())
        totals = set()
        for order in ((0, 1, 2), (2, 1, 0), (1, 2, 0)):
            accumulator = SnapshotAccumulator()
            for i in order:
                accumulator.add(snaps[i])
            merged = merge_snapshots(*(snaps[i] for i in order))
            assert accumulator.snapshot() == merged
            totals.add(merged["histograms"]["h"]["total"])
        assert totals == {0.6}

    def test_mismatched_histogram_bounds_raise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", bounds=[1.0]).observe(0.5)
        b.histogram("h", bounds=[2.0]).observe(0.5)
        with pytest.raises(ValueError, match="mismatched bounds"):
            merge_snapshots(a.snapshot(), b.snapshot())

    def test_spans_add_calls_and_wall(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.span_record("phase", 1.0)
        b.span_record("phase", 2.0)
        merged = merge_snapshots(a.snapshot(), b.snapshot())["spans"]["phase"]
        assert merged == {"calls": 2, "wall_s": 3.0}


class TestStripTimings:
    def test_drops_wall_keeps_calls(self):
        registry = MetricsRegistry()
        registry.span_record("phase", 0.123)
        registry.counter("c").inc()
        stripped = strip_timings(registry.snapshot())
        assert stripped["spans"]["phase"] == {"calls": 1}
        assert stripped["counters"] == {"c": 1}

    def test_does_not_mutate_input(self):
        registry = MetricsRegistry()
        registry.span_record("phase", 0.5)
        snap = registry.snapshot()
        strip_timings(snap)
        assert snap["spans"]["phase"]["wall_s"] == pytest.approx(0.5)
