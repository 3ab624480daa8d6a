"""Fleet-of-fleets sharding: whole device populations, bounded memory.

The batch engine (:mod:`repro.sim.batch`) made one *chunk* of devices
cheap; the sweep runner (:mod:`repro.runner.sweep`) made a grid of
points fault tolerant.  This package composes them: a
:class:`FleetPlan` cuts an N-device population into batch shards, each
shard runs as one cached/retried/timeout-bounded sweep point
(:func:`fleet_shard_point`) that returns its devices' observable
columns, and each shard's wear column reduces through streaming,
associatively mergeable digests (:class:`WearDigest`,
:class:`repro.obs.SnapshotAccumulator`) so peak memory follows the
shard size while the fleet scales to millions of devices.

The package owns device populations end to end: the default mix
(:data:`DEFAULT_MIX_WEIGHTS`), per-device identity
(:func:`assign_mixes`) and the chunk functions live here, and every
population number in the repo runs through :func:`run_fleet`.

Invariants pinned by ``tests/fleet``:

* **shard invariance** -- the same plan re-sharded (any
  ``shard_size``/``chunk``) simulates every device bit-identically;
* **exactness is planned, not emergent** -- fleets at or below
  ``exact_cap`` devices report bit-exact quantiles and a device-ordered
  wear vector; larger fleets get histogram estimates within one bin
  width, decided up front so completion order can never change the
  answer's nature (nor, since shard totals sum in shard order, its
  ``mean``);
* **streaming reduction** -- shard values are dropped as soon as they
  are cached and folded, so the coordinator never holds the fleet.
"""

from .plan import DEFAULT_MIX_WEIGHTS, FleetPlan, assign_mixes
from .points import fleet_shard_point
from .reduce import WEAR_BIN_WIDTH, WEAR_N_BINS, WearDigest
from .run import FleetResult, fleet_store_keys, fleet_wear_from_store, run_fleet

__all__ = [
    "DEFAULT_MIX_WEIGHTS",
    "FleetPlan",
    "FleetResult",
    "WEAR_BIN_WIDTH",
    "WEAR_N_BINS",
    "WearDigest",
    "assign_mixes",
    "fleet_shard_point",
    "fleet_store_keys",
    "fleet_wear_from_store",
    "run_fleet",
]
