"""Per-layer tracing installed from outside the program.

The traced run wraps the public functions of each layer with
``functools.wraps`` wrappers that count calls and accumulate *self*
time: a call's wall time minus the wall time of the wrapped calls it
made.  Nothing inside ``src/`` changes, and an untraced run never
touches a single attribute (the self-tests pin this with ``is``).

Every wrapper is installed where the caller looks the name up, never
where the function was defined: ``repro.store.store`` calls
``unpack_block_body`` through its own module global, so that global is
the one patched, not ``repro.store.format.unpack_block_body``.  Methods
are patched on their class, which is where every instance resolves
them; ``classmethod`` descriptors are unwrapped and re-wrapped so the
binding is unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = [
    "LAYERS", "TARGETS", "Stat", "Tracer", "format_table", "get_raw", "resolve", "traced",
]


def _not_none(result: Any) -> bool:
    return result is not None


#: (metric name, owner, attribute, hit predicate).  ``owner`` is
#: ``module`` or ``module:Qualified.Name``; a dict owner is patched by
#: key.  The hit predicate, when given, counts results that are useful
#: outcomes (cache hits); raised exceptions are counted for every
#: target (a ``DecodeFailure`` is a failed BCH decode).
TARGETS: tuple[tuple[str, str, str, Callable[[Any], bool] | None], ...] = (
    ("workloads.daily_volume_arrays", "repro.workloads.mobile:MobileWorkload",
     "daily_volume_arrays", None),
    ("sim.build", "repro.sim.baselines:ALL_BUILDERS", "tlc_baseline", None),
    ("sim.summary_batch", "repro.sim.batch:SummaryBatch", "from_volume_arrays", None),
    ("sim.from_devices", "repro.sim.batch:BatchLifetimeDevice", "from_devices", None),
    ("sim.step_day", "repro.sim.batch:BatchLifetimeDevice", "step_day", None),
    ("sim.scatter_to", "repro.sim.batch:BatchPartition", "scatter_to", None),
    ("sim.run_lifetime_batch", "repro.sim.batch", "run_lifetime_batch", None),
    ("ecc.residual_ber_many", "repro.ecc.policy:ProtectionPolicy",
     "residual_ber_many", None),
    ("ecc.bch_encode", "repro.ecc.bch:BCHCode", "encode", None),
    ("ecc.bch_decode", "repro.ecc.bch:BCHCode", "decode", None),
    ("core.create_file", "repro.core.sos_device:SOSDevice", "create_file", None),
    ("core.run_daemon", "repro.core.sos_device:SOSDevice", "run_daemon", None),
    ("core.scrub", "repro.core.scrubber:Scrubber", "scrub", None),
    ("media.store", "repro.media.approx_store:ApproximateStore", "store", None),
    ("media.audit_quality", "repro.media.approx_store:ApproximateStore",
     "audit_quality", None),
    ("ftl.replay", "repro.ftl.replay", "replay", None),
    ("ftl.build", "repro.ftl.replay", "build_replay_ftl", None),
    ("ftl.write_many", "repro.ftl.ftl:Ftl", "write_many", None),
    ("ftl.read_many", "repro.ftl.ftl:Ftl", "read_many", None),
    ("ftl.trim_many", "repro.ftl.ftl:Ftl", "trim_many", None),
    ("ftl.run_wear_leveling", "repro.ftl.ftl:Ftl", "run_wear_leveling", None),
    ("ftl.gc_select_victim", "repro.ftl.ftl", "select_victim_arrays", None),
    ("flash.advance_time", "repro.flash.chip:FlashChip", "advance_time", None),
    ("runner.run_sweep", "repro.fleet.run", "run_sweep", None),
    ("runner.cache_load", "repro.runner.cache:ResultCache", "load", _not_none),
    ("runner.cache_store", "repro.runner.cache:ResultCache", "store", None),
    ("store.put", "repro.store.store:ColumnStore", "put", None),
    ("store.get", "repro.store.store:ColumnStore", "get", None),
    ("store.unpack_block_body", "repro.store.store", "unpack_block_body", None),
    ("store.column_values", "repro.store.store:ColumnStore", "column_values", None),
    ("store.compact", "repro.store.store:ColumnStore", "compact", None),
    ("fleet.shard_point", "repro.fleet.run", "fleet_shard_point", None),
    ("fleet.digest_add", "repro.fleet.reduce:WearDigest", "add_many", None),
    ("fleet.digest_merge", "repro.fleet.reduce:WearDigest", "merge_in", None),
)

#: layer names in report order; ``other`` takes the time no wrapper covers
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name, *_ in TARGETS))


def resolve(owner: str) -> Any:
    """The object an owner spec names (a module, class or dict)."""
    module_name, _, qualname = owner.partition(":")
    obj = importlib.import_module(module_name)
    for part in filter(None, qualname.split(".")):
        obj = getattr(obj, part)
    return obj


def get_raw(obj: Any, attr: str) -> Any:
    """The attribute exactly as stored (descriptors not bound)."""
    if isinstance(obj, dict):
        return obj[attr]
    if isinstance(obj, type):
        return obj.__dict__[attr]
    return getattr(obj, attr)


def _set_raw(obj: Any, attr: str, value: Any) -> None:
    if isinstance(obj, dict):
        obj[attr] = value
    else:
        setattr(obj, attr, value)


@dataclass(slots=True)
class Stat:
    """Counters of one wrapped function."""

    calls: int = 0
    self_s: float = 0.0
    raised: int = 0
    hits: int = 0


class Tracer:
    """Call counts and self time per wrapped function.

    Self time uses a stack of child-time accumulators: a finished call
    adds its whole wall time to its parent's accumulator, and its own
    self time is its wall time minus what its children accumulated.
    Single-threaded by design: every workload runs with ``jobs=1``.
    """

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {name: Stat() for name, *_ in TARGETS}
        self._children: list[float] = []

    def wrap(self, name: str, fn: Callable, hit: Callable[[Any], bool] | None) -> Callable:
        stat = self.stats[name]
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.self_s += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
            if hit is not None and hit(result):
                stat.hits += 1
            return result

        return wrapper

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-function calls and self shares, per-layer shares, ratios.

        ``wall_s`` is the traced wall time the shares are taken of; the
        part no wrapper covers is ``other.self_share``.
        """
        out: dict[str, float] = {}
        layer_s = dict.fromkeys(LAYERS, 0.0)
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_share"] = stat.self_s / wall_s
            layer_s[name.split(".")[0]] += stat.self_s
        for layer, seconds in layer_s.items():
            out[f"{layer}.self_share"] = seconds / wall_s
        out["other.self_share"] = 1.0 - sum(layer_s.values()) / wall_s
        decode = self.stats["ecc.bch_decode"]
        out["ecc.bch_decode_ok_ratio"] = (
            (decode.calls - decode.raised) / decode.calls if decode.calls else 0.0
        )
        load = self.stats["runner.cache_load"]
        out["runner.cache_hit_ratio"] = load.hits / load.calls if load.calls else 0.0
        return out


def format_table(tracer: Tracer, wall_s: float) -> str:
    """Human-readable per-function table, busiest first; idle ones omitted."""
    rows = sorted(
        ((name, stat) for name, stat in tracer.stats.items() if stat.calls),
        key=lambda item: -item[1].self_s,
    )
    lines = [f"{'function':32} {'calls':>10} {'self_s':>10} {'share':>7}"]
    lines += [
        f"{name:32} {stat.calls:>10} {stat.self_s:>10.4f} {stat.self_s / wall_s:>7.1%}"
        for name, stat in rows
    ]
    shares = tracer.layer_metrics(wall_s)
    lines.append("layers: " + ", ".join(
        f"{layer} {shares[f'{layer}.self_share']:.1%}" for layer in (*LAYERS, "other")
    ))
    return "\n".join(lines)


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer``'s wrappers for the block, then restore every
    original object exactly (the same object, not an equal one)."""
    installed: list[tuple[Any, str, Any]] = []
    try:
        for name, owner, attr, hit in TARGETS:
            obj = resolve(owner)
            raw = get_raw(obj, attr)
            if isinstance(raw, classmethod):
                patched: Any = classmethod(tracer.wrap(name, raw.__func__, hit))
            else:
                patched = tracer.wrap(name, raw, hit)
            _set_raw(obj, attr, patched)
            installed.append((obj, attr, raw))
        yield tracer
    finally:
        for obj, attr, raw in reversed(installed):
            _set_raw(obj, attr, raw)
