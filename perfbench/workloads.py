"""The benchmark's four workloads: set-up, one measured round, checks.

Each workload is a class with the same shape:

* ``prepare()`` builds the inputs.  The runner calls it several times
  and reports the median as set-up time; each call replaces the last.
* ``run_round()`` is the measured operation and returns its raw outputs.
* ``check_round(out)`` verifies those outputs outside the timed region
  and counts units (shards, claim verdicts, output checks) into
  ``self.tally``; it also deletes what the round left on disk.

Every fleet runs with ``jobs=1``, in this process, so the per-layer
wrappers see every call.  Temporary caches live under the directory the
runner passes in, never outside the checkout.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.fleet import FleetPlan, WearDigest, fleet_wear_from_store, run_fleet
from repro.runner.cache import ResultCache
from repro.store import ColumnStore
from scenarios import e10_checks, e6_checks

__all__ = ["DEFAULT_SEED", "WORKLOADS", "Tally"]

#: keeps device identities continuous with BENCH_runner.json's fleets
DEFAULT_SEED = 606

QUANTILES = (0.5, 0.9, 0.99)


@dataclass
class Tally:
    """Units attempted and the labels of those that failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    def shards(self, result, label: str) -> None:
        """Every shard of a fleet run is one unit."""
        self.attempted += result.plan.n_shards
        self.failures.extend(
            f"{label}: shard {error.index} {error.kind}: {error.message}"
            for error in result.sweep.errors
        )


def _plan(seed: int, **geometry) -> FleetPlan:
    """The fleet a seed names.

    The population's mix assignment stays that of the default seed, so
    every seed simulates the same number of light, typical and heavy
    users and a round costs the same host time; the seed moves each
    device's workload seed (its daily volumes, LPN stream and chip).
    The default seed keeps ``workload_seed_base=1000``, the device
    identities of BENCH_runner.json's fleets.
    """
    n = geometry["n_devices"]
    base = 1000 + ((seed - DEFAULT_SEED) % 2**20) * n
    return FleetPlan(seed=DEFAULT_SEED, workload_seed_base=base, **geometry)


def _identity(digest: WearDigest) -> tuple:
    """The bit-level identity of a digest's distribution.

    ``total`` is left out: an off-disk digest sums its values in device
    order, the in-memory one in shard order, so the last bits differ.
    """
    exact = None if digest.exact is None else np.asarray(digest.exact).tobytes()
    return exact, digest.count, tuple(digest.counts), digest.min, digest.max


def _sum_column(cache: Path, column: str) -> int:
    store = ColumnStore(cache / ResultCache.STORE_FILE, mode="read")
    return int(store.column_values(column).sum())


class _Fleet:
    """Shared shape of the two fleet-simulation workloads: a fresh
    temporary cache per round, so each round pays the store's write side."""

    name = ""
    item_unit = "devices"
    throughput = "devices_per_s"
    fidelity = "epoch"

    #: plan geometry of a benchmark round; the self-tests pass smaller ones
    GEOMETRY: dict = {}

    def __init__(self, seed: int, tmp: Path, **geometry) -> None:
        self.seed = seed
        self.tmp = tmp
        self.geometry = {"days": 90, **self.GEOMETRY, **geometry}
        #: pinned outputs apply to the benchmark's own inputs only
        self.pinned = seed == DEFAULT_SEED and not geometry
        self.tally = Tally()
        self.plan: FleetPlan | None = None
        self._first: tuple | None = None

    @property
    def items(self) -> int:
        return self.geometry["n_devices"]

    def prepare(self) -> None:
        self.plan = _plan(self.seed, fidelity=self.fidelity, **self.geometry)

    def run_round(self):
        cache = Path(tempfile.mkdtemp(dir=self.tmp))
        return cache, run_fleet(self.plan, jobs=1, cache_dir=cache, keep_going=True)

    def check_round(self, out) -> None:
        cache, result = out
        try:
            t = self.tally
            t.shards(result, self.name)
            t.expect(result.devices == self.items,
                     f"{self.name}: {result.devices} of {self.items} devices")
            identity = self._check_outputs(cache, result)
            if self._first is None:
                self._first = identity
            t.expect(identity == self._first,
                     f"{self.name}: round outputs differ from the first round's")
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    def _check_outputs(self, cache: Path, result) -> tuple:
        raise NotImplementedError

    def close(self) -> None:
        pass


class EpochFleet(_Fleet):
    """``run_fleet`` on the epoch engine into a fresh cache."""

    name = "epoch-fleet"

    GEOMETRY = {"n_devices": 4_000, "shard_size": 2_000, "chunk": 1_000}
    #: device count and exact wear p50/p90/p99/max at the default seed
    PINNED = (4_000, (0.003161912431075097, 0.007183660329326964,
                      0.056804015660067556, 0.061805934844511655))

    def _check_outputs(self, cache: Path, result) -> tuple:
        wear = result.wear
        stats = (wear.count, (*wear.quantiles(QUANTILES), wear.max))
        if self.pinned:
            self.tally.expect(stats == self.PINNED,
                              f"{self.name}: wear {stats} != pinned {self.PINNED}")
        else:
            values = stats[1]
            self.tally.expect(
                all(np.isfinite(values)) and list(values) == sorted(values),
                f"{self.name}: wear quantiles {values} not ordered",
            )
        return _identity(wear)


class FtlFleet(_Fleet):
    """``run_fleet`` at page-level FTL fidelity into a fresh cache."""

    name = "ftl-fleet"
    fidelity = "ftl"

    GEOMETRY = {"n_devices": 20, "shard_size": 10, "chunk": 10}
    COUNTERS = ("gc_erases", "gc_migrations", "wl_migrations", "host_writes")
    #: summed FTL counters at the default seed
    PINNED = {"gc_erases": 11_581, "gc_migrations": 180_730, "wl_migrations": 0,
              "host_writes": 223_430}
    #: write amplification of the last checked round
    waf = 0.0

    def _check_outputs(self, cache: Path, result) -> tuple:
        sums = {c: _sum_column(cache, f"obs.{c}") for c in self.COUNTERS}
        # page programs over host writes; GC and wear-leveling migrations
        # are the extra programs
        self.waf = (
            sums["host_writes"] + sums["gc_migrations"] + sums["wl_migrations"]
        ) / sums["host_writes"] if sums["host_writes"] else 0.0
        if self.pinned:
            self.tally.expect(sums == self.PINNED,
                              f"{self.name}: counters {sums} != pinned {self.PINNED}")
        else:
            self.tally.expect(sums["host_writes"] > 0 and self.waf >= 1.0,
                              f"{self.name}: counters {sums} implausible")
        return _identity(result.wear), tuple(sums.values())


class BitexactClaims:
    """The E10 and E6 claim scenarios on the bit-exact device."""

    name = "bitexact-claims"
    item_unit = "claims"
    throughput = "claims_per_s"

    def __init__(self, seed: int, tmp: Path) -> None:
        self.tally = Tally()
        self.items = 0

    def prepare(self) -> None:
        # each round builds its own devices: nothing to stage
        pass

    def run_round(self):
        return e10_checks() + e6_checks()

    def check_round(self, checks) -> None:
        self.items = len(checks)
        for check in checks:
            self.tally.expect(
                check.holds,
                f"{self.name}: claim {check.claim_id} diverges "
                f"(paper {check.paper_text}, measured {check.measured:.6g})",
            )

    def close(self) -> None:
        pass


class FleetResume:
    """Warm resume of a compacted many-shard fleet cache.

    Set-up populates the fleet cold and compacts its store, leaving the
    state ``repro store compact`` leaves.  A round reads it (warm
    ``run_fleet`` with every shard a cache hit, the off-disk digest,
    every observable column) and writes it (``compact``), so a gain on
    one side that costs the other shows.  Compaction output depends only
    on content, so every round starts from the same bytes.
    """

    name = "fleet-resume"
    item_unit = "values"
    throughput = "query_values_per_s"

    def __init__(self, seed: int, tmp: Path, *, n_devices: int = 1_000,
                 shard_size: int = 10, days: int = 90) -> None:
        self.seed = seed
        self.tmp = tmp
        self.plan = _plan(seed, n_devices=n_devices, days=days,
                          shard_size=shard_size, chunk=shard_size)
        self.tally = Tally()
        self.cache: Path | None = None
        self.cold: WearDigest | None = None
        self.columns: list[str] = []
        self.items = 0

    def prepare(self) -> None:
        self.close()
        self.cache = Path(tempfile.mkdtemp(dir=self.tmp))
        cold = run_fleet(self.plan, jobs=1, cache_dir=self.cache, keep_going=True)
        self.tally.shards(cold, f"{self.name} cold populate")
        self.cold = cold.wear
        store = ColumnStore(self.cache / ResultCache.STORE_FILE)
        store.compact()
        self.columns = store.columns(store.keys()[0])
        # the off-disk digest reads one value per device, plus every column
        self.items = self.plan.n_devices * (1 + len(self.columns))

    def run_round(self):
        warm = run_fleet(self.plan, jobs=1, cache_dir=self.cache, keep_going=True)
        off_disk = fleet_wear_from_store(self.plan, self.cache)
        store = ColumnStore(self.cache / ResultCache.STORE_FILE)
        values = sum(store.column_values(column).size for column in self.columns)
        report = store.compact()
        return warm, off_disk, values, report

    def check_round(self, out) -> None:
        warm, off_disk, values, report = out
        t = self.tally
        n_shards = self.plan.n_shards
        t.shards(warm, self.name)
        t.expect(warm.sweep.cached_count == n_shards,
                 f"{self.name}: {warm.sweep.cached_count} of {n_shards} shards hit")
        cold = _identity(self.cold)
        t.expect(_identity(warm.wear) == cold and warm.wear.total == self.cold.total,
                 f"{self.name}: resumed digest differs from the cold run's")
        t.expect(_identity(off_disk) == cold,
                 f"{self.name}: off-disk digest differs from the cold run's")
        t.expect(values == self.plan.n_devices * len(self.columns),
                 f"{self.name}: {values} column values answered")
        t.expect(report["keys"] == n_shards and report["dropped_entries"] == 0,
                 f"{self.name}: compaction kept {report['keys']} keys, "
                 f"dropped {report['dropped_entries']}")

    def close(self) -> None:
        if self.cache is not None:
            shutil.rmtree(self.cache, ignore_errors=True)
            self.cache = None


WORKLOADS = {
    cls.name: cls for cls in (EpochFleet, FtlFleet, BitexactClaims, FleetResume)
}
