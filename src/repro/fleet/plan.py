"""Fleet plans: how an N-device population is cut into batch shards.

A :class:`FleetPlan` is the declarative description of a fleet run --
population identity (seed, mix weights, workload seed base), device
configuration (build, capacity, service days), and the execution
geometry (shard size, vectorization chunk).  Its :meth:`shard_grid`
turns the plan into a sweep grid of *shard points* for
:func:`repro.fleet.points.fleet_shard_point`.  The plan is the one home
of a population request: its fields hold the only defaults, its
construction the only validation (a plan that exists is one every shard
can run), and ``from_params``/``to_params`` the wire form, so the
gateway, the CLI and the shard point keep no population rule of their own.

The load-bearing property is **shard invariance**: every parameter a
shard needs is a function of the plan and the shard's *global* device
interval ``[start, start + count)``, never of the shard count or of any
other shard.  Device ``u`` gets workload seed
``workload_seed_base + u`` and the intensity mix :func:`assign_mixes`
derives for global index ``u``, so re-sharding the same plan (or
resuming a crashed run with a different ``shard_size``) reproduces each
device bit-identically.

``mix_weights`` is carried as an *ordered* tuple of ``(name, weight)``
pairs, and shard params encode it as a list of pairs rather than a
mapping: the order fixes which CDF interval each mix owns, and the
cache's ``stable_key`` sorts mapping keys -- two orderings that assign
devices differently must not collide on one cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.workloads.apps import USER_MIXES

__all__ = ["DEFAULT_MIX_WEIGHTS", "FleetPlan", "assign_mixes"]

#: population intensity mix: mostly light/typical, thin heavy tail.
#: The default of every :class:`FleetPlan`, so every "realistic fleet"
#: in the repo (E14, E16, ``repro population``) means the same fleet.
DEFAULT_MIX_WEIGHTS = {
    "light": 0.35,
    "typical": 0.45,
    "heavy": 0.18,
    "adversarial": 0.02,
}


#: the wire form: each key a request may name -> the JSON type its value
#: must have.  ``devices`` and ``days`` are required; ``devices`` sets
#: ``n_devices`` and every other key the field of its name.
_WIRE = {
    "devices": "an int", "days": "an int", "capacity_gb": "a number",
    "seed": "an int", "build": "a string", "shard_size": "an int",
    "chunk": "an int", "exact_cap": "an int",
    "faults": "null or an object of fault names to numbers", "fidelity": "a string",
}
_FIELD = {"devices": "n_devices"}


def _is_json(value, kind: str) -> bool:
    """Whether ``value`` has the JSON type ``kind`` (a ``_WIRE`` type);
    never coerced, and ``true``/``false`` are bools, never numbers."""
    if kind.startswith("null"):
        return value is None or isinstance(value, dict) and all(
            isinstance(k, str) and _is_json(v, "a number") for k, v in value.items()
        )
    types = {"an int": int, "a number": (int, float), "a string": str}[kind]
    return isinstance(value, types) and not isinstance(value, bool)


def _canonical_weights(mix_weights) -> tuple[tuple[str, float], ...]:
    """Ordered ``(name, weight)`` pairs whose weights a mix draw can
    use: finite, non-negative, with a positive (finite) sum."""
    pairs = mix_weights.items() if isinstance(mix_weights, Mapping) else mix_weights
    canonical = tuple((str(name), float(weight)) for name, weight in pairs)
    if not canonical:
        raise ValueError("mix_weights must name at least one mix")
    weights = np.array([weight for _, weight in canonical])
    if not ((weights >= 0.0).all() and 0.0 < weights.sum() < np.inf):
        raise ValueError(
            "mix weights must be finite and non-negative with a positive sum, "
            f"got {dict(canonical)}"
        )
    return canonical


def assign_mixes(
    seed: int,
    mix_weights,
    start: int,
    count: int,
) -> list[str]:
    """Intensity-mix assignment for devices ``start .. start+count-1``.

    The population convention: device ``u``'s mix is the ``u``-th draw
    of the ``numpy.random.default_rng(seed)`` stream through
    ``rng.choice(len(mixes), p=weights)`` -- one PCG64 state step per
    device.  This function reproduces those draws **bit-identically**
    (pinned by tests against the sequential loop) but derives them from
    the *global* device index: ``PCG64.advance(start)`` jumps straight
    to device ``start``'s draw in O(1), and the block of ``count``
    uniforms then resolves through the same normalized-CDF searchsorted
    that ``Generator.choice`` uses internally.

    Two properties follow, and the fleet sharding layer leans on both:

    * **chunk/shard invariance** -- a device's mix depends only on
      ``(seed, mix_weights, global index)``, never on how the
      population is cut into shards or how large it is;
    * **shard-local construction** -- a shard worker materializes its
      own slice of the assignment in O(shard) time and memory, so
      nobody ever builds (or ships) the million-entry global list.

    ``mix_weights`` is a name->weight mapping or a sequence of
    ``(name, weight)`` pairs; **order matters** (it fixes which CDF
    interval each name owns), which is why sharded grids carry the
    weights as an ordered list of pairs.
    """
    if count < 0 or start < 0:
        raise ValueError("start and count must be non-negative")
    pairs = _canonical_weights(mix_weights)
    names = [name for name, _ in pairs]
    weights = np.array([weight for _, weight in pairs], dtype=float)
    if count == 0:
        return []
    # the exact normalization chain of Generator.choice(p=weights/sum):
    # choice re-normalizes its (already normalized) p via the CDF
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    uniforms = np.random.Generator(
        np.random.PCG64(seed).advance(start)
    ).random(count)
    return [names[i] for i in cdf.searchsorted(uniforms, side="right")]


@dataclass(frozen=True, slots=True)
class FleetPlan:
    """Declarative description of one fleet-of-fleets run.

    Attributes
    ----------
    n_devices:
        Population size.
    days:
        Service days each device is simulated for.
    capacity_gb:
        Per-device flash capacity.
    seed:
        Population identity seed: drives per-device mix assignment and
        the sweep's per-shard seeds.
    mix_weights:
        Ordered ``(mix name, weight)`` pairs (a mapping is accepted and
        canonicalized in iteration order).  Every name must be a
        ``USER_MIXES`` key, and the weights finite and non-negative
        with a positive sum.  Order is significant -- see the module
        docstring.
    shard_size:
        Devices per sweep point (default: ``chunk``).  Each shard is one
        unit of caching, retry, timeout, and fault attribution in
        ``run_sweep``; peak coordinator memory is proportional to
        ``shard_size``, never to ``n_devices``.
    chunk:
        Devices per vectorized batch-engine pass *inside* a shard
        (bounds worker-side peak memory; results are chunk invariant).
    build:
        ``ALL_BUILDERS`` key for the device build (``"tlc_baseline"``
        at FTL fidelity, whose replay chip is native TLC).
    workload_seed_base:
        Device ``u`` runs workload seed ``workload_seed_base + u``.
    faults:
        Optional plain-data fault config mapping applied to every
        device (each device's plan is seeded by its workload seed);
        epoch fidelity only.
    exact_cap:
        Fleets with ``n_devices <= exact_cap`` carry raw per-device
        wear values through the reduction (bit-exact quantiles and a
        device-ordered wear vector); larger fleets use histogram
        estimates so shard values stay O(bins).
    fidelity:
        Device simulation fidelity: ``"epoch"`` (default) runs the
        batched epoch-level lifetime model; ``"ftl"`` replays each
        device through the page-mapped FTL
        (:func:`repro.fleet.points.ftl_population_observables`).
        Per-device identity (mix, workload seed) is the same under
        either fidelity.
    """

    n_devices: int
    days: int
    capacity_gb: float = 64.0
    seed: int = 606
    mix_weights: tuple[tuple[str, float], ...] = field(
        default_factory=lambda: _canonical_weights(DEFAULT_MIX_WEIGHTS)
    )
    shard_size: int | None = None
    chunk: int = 50
    build: str = "tlc_baseline"
    workload_seed_base: int = 1000
    faults: tuple[tuple[str, float], ...] | None = None
    exact_cap: int = 100_000
    fidelity: str = "epoch"

    @classmethod
    def from_params(cls, params: Mapping) -> "FleetPlan":
        """The plan a wire-form request (the keys of :meth:`to_params`)
        names, or a ``ValueError`` fit for the client: values are
        type-checked, never coerced, and an unknown key is refused, so a
        misspelt one never runs as its default."""
        unknown = sorted(set(params) - set(_WIRE))
        if unknown:
            raise ValueError(f"unknown population key(s) {unknown}; known: {list(_WIRE)}")
        kwargs = {}
        for key, kind in _WIRE.items():
            if key in params:
                if not _is_json(params[key], kind):
                    raise ValueError(f"{key!r} must be {kind}, got {params[key]!r}")
                kwargs[_FIELD.get(key, key)] = params[key]
            elif key in ("devices", "days"):
                raise ValueError(f"{key!r} is required")
        if "capacity_gb" in kwargs:
            kwargs["capacity_gb"] = float(kwargs["capacity_gb"])
        return cls(**kwargs)

    def to_params(self) -> dict:
        """This plan's wire form, every key filled in, so a request spelled
        with or without its defaults has the same params (mix weights and
        the workload seed base are not on the wire)."""
        params = {key: getattr(self, _FIELD.get(key, key)) for key in _WIRE}
        params["faults"] = None if self.faults is None else dict(self.faults)
        return params

    def __post_init__(self) -> None:
        """Reject any plan a shard could not run: the one validator of
        population parameters (the gateway and the CLI defer to it)."""
        if self.shard_size is None:
            object.__setattr__(self, "shard_size", self.chunk)
        # sorted (name, rate) pairs; no fault names injects nothing, as None
        pairs = self.faults.items() if isinstance(self.faults, Mapping) else self.faults
        faults = tuple(sorted((str(k), float(v)) for k, v in pairs or ()))
        object.__setattr__(self, "faults", faults or None)
        if self.fidelity not in ("epoch", "ftl"):
            raise ValueError("fidelity must be 'epoch' or 'ftl'")
        if self.fidelity == "ftl" and self.faults is not None:
            raise ValueError("fault injection is epoch-fidelity only")
        if self.fidelity == "ftl" and self.build != "tlc_baseline":
            raise ValueError(
                "FTL fidelity replays a native TLC chip; build must be "
                f"'tlc_baseline', got {self.build!r}"
            )
        from repro.sim.baselines import ALL_BUILDERS

        if self.build not in ALL_BUILDERS:
            raise ValueError(
                f"unknown build {self.build!r}; known: {', '.join(ALL_BUILDERS)}"
            )
        if self.n_devices <= 0:
            raise ValueError("n_devices must be positive")
        if self.days <= 0:
            raise ValueError("days must be positive")
        if self.capacity_gb <= 0:
            raise ValueError("capacity_gb must be positive")
        if self.shard_size <= 0:
            raise ValueError("shard_size must be positive")
        if self.chunk <= 0:
            raise ValueError("chunk must be positive")
        if self.exact_cap < 0:
            raise ValueError("exact_cap must be non-negative")
        # numpy seeds devices and shards from these: a negative one
        # would only fail inside a shard
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.workload_seed_base < 0:
            raise ValueError("workload_seed_base must be non-negative")
        object.__setattr__(
            self, "mix_weights", _canonical_weights(self.mix_weights)
        )
        for name, _ in self.mix_weights:
            if name not in USER_MIXES:
                raise ValueError(
                    f"unknown mix {name!r}; known: {', '.join(USER_MIXES)}"
                )
        if self.faults is not None:
            from repro.faults.plan import FaultConfig

            try:
                FaultConfig.from_params(dict(self.faults))
            except TypeError as err:  # an unknown fault name
                raise ValueError(f"unknown fault name ({err})") from err

    @property
    def n_shards(self) -> int:
        return -(-self.n_devices // self.shard_size)

    @property
    def exact(self) -> bool:
        """Whether this fleet reduces exactly (decided here, up front,
        so it never depends on shard completion order)."""
        return self.n_devices <= self.exact_cap

    def shard_grid(self) -> tuple[dict, ...]:
        """One plain-data params dict per shard, for ``run_sweep``.

        Each dict depends only on the plan and the shard's global
        device interval, so a shard's cache key -- and its simulated
        devices -- survive re-sharding of everything around it.
        """
        weights = [[name, weight] for name, weight in self.mix_weights]
        grid = []
        for start in range(0, self.n_devices, self.shard_size):
            params: dict = {
                "start": start,
                "count": min(self.shard_size, self.n_devices - start),
                "pop_seed": self.seed,
                "mix_weights": weights,
                "capacity_gb": self.capacity_gb,
                "days": self.days,
                "build": self.build,
                "workload_seed_base": self.workload_seed_base,
                "chunk": self.chunk,
                "fidelity": self.fidelity,
            }
            if self.faults:
                params["faults"] = dict(self.faults)
            grid.append(params)
        return tuple(grid)
