"""Fleet population chunks reproduce per-device runs of the scalar oracle.

The E16/E14 benches and the CLI ``population`` command run device
populations as :mod:`repro.fleet` shards, each stepping its devices
through the batched epoch engine in chunks; the A6 grid batches its WAF
row the same way.  These tests pin that batching is purely an execution
strategy: wear values, percentiles, and the A6 sensitivity grid match
the per-device scalar oracle (``tests/sim/lifetime_oracle.py``), and
chunk size never leaks into results.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.faults.plan import plan_for_build
from repro.flash.cell import CellTechnology
from repro.flash.reliability import ENDURANCE_TABLE
from repro.fleet import DEFAULT_MIX_WEIGHTS, FleetPlan, assign_mixes, fleet_shard_point
from repro.fleet.points import population_batch_observables
from repro.runner.points import sensitivity_batch_point
from repro.sim.baselines import ALL_BUILDERS, build_sos, build_tlc_baseline
from repro.sim.engine import run_lifetime
from repro.workloads.mobile import MobileWorkload, WorkloadConfig

# the scalar oracle lives with the epoch-engine tests
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "sim"))
import lifetime_oracle as oracle  # noqa: E402

N_USERS = 12
DAYS = 150
FAULTS = {"block_infant_mortality": 0.05, "transient_read_rate": 0.2,
          "power_loss_rate": 0.05, "cloud_outage_rate": 0.02}


def _sequential_mixes(seed: int, mix_weights: dict, n: int) -> list[str]:
    """The original convention: one rng.choice draw per device, in order."""
    rng = np.random.default_rng(seed)
    names = list(mix_weights)
    weights = np.array(list(mix_weights.values()))
    weights = weights / weights.sum()
    return [names[rng.choice(len(names), p=weights)] for _ in range(n)]


class TestAssignMixes:
    def test_matches_sequential_choice_loop_bit_identically(self):
        for seed in (0, 606, 1414, 2**40 + 17):
            expected = _sequential_mixes(seed, DEFAULT_MIX_WEIGHTS, 300)
            assert assign_mixes(seed, DEFAULT_MIX_WEIGHTS, 0, 300) == expected

    def test_slice_property(self):
        """A shard's assignment is the global assignment's slice -- the
        invariant that makes sharding chunk-size invariant."""
        full = assign_mixes(606, DEFAULT_MIX_WEIGHTS, 0, 1000)
        for start, count in ((0, 1), (437, 200), (999, 1), (250, 750)):
            assert assign_mixes(606, DEFAULT_MIX_WEIGHTS, start, count) == \
                full[start:start + count]

    def test_accepts_ordered_pairs(self):
        pairs = list(DEFAULT_MIX_WEIGHTS.items())
        assert assign_mixes(7, pairs, 0, 50) == \
            assign_mixes(7, DEFAULT_MIX_WEIGHTS, 0, 50)

    def test_weight_order_matters(self):
        """Reordered weights assign differently -- why sharded grids carry
        weights as an ordered list of pairs, never a key-sorted mapping."""
        pairs = list(DEFAULT_MIX_WEIGHTS.items())
        reordered = list(reversed(pairs))
        assert assign_mixes(606, pairs, 0, 200) != \
            assign_mixes(606, reordered, 0, 200)

    def test_empty_count(self):
        assert assign_mixes(1, DEFAULT_MIX_WEIGHTS, 5, 0) == []

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            assign_mixes(1, {}, 0, 5)
        with pytest.raises(ValueError):
            assign_mixes(1, {"a": -1.0, "b": 2.0}, 0, 5)
        with pytest.raises(ValueError):
            assign_mixes(1, {"a": 0.0}, 0, 5)
        with pytest.raises(ValueError):
            assign_mixes(1, DEFAULT_MIX_WEIGHTS, -1, 5)


def _plan(n_devices: int, days: int, chunk: int, **overrides) -> FleetPlan:
    """A fleet whose every shard is one chunk-function pass."""
    return FleetPlan(n_devices=n_devices, days=days, capacity_gb=64.0,
                     shard_size=chunk, chunk=chunk, **overrides)


def _identity(plan: FleetPlan) -> list[tuple[str, int]]:
    """Device ``u``'s ``(mix, workload seed)``, straight from the plan."""
    mixes = assign_mixes(plan.seed, plan.mix_weights, 0, plan.n_devices)
    return [(mix, plan.workload_seed_base + u) for u, mix in enumerate(mixes)]


def _shard_obs(plan: FleetPlan) -> dict:
    """The fleet's observable columns, stitched across its shards."""
    parts = [fleet_shard_point(params, 0)["obs"] for params in plan.shard_grid()]
    return {name: np.concatenate([p[name] for p in parts]) for name in parts[0]}


def _volumes(mix: str, seed: int):
    return MobileWorkload(WorkloadConfig(mix=mix, days=DAYS, seed=seed)).daily_volume_arrays()


def test_population_batch_matches_scalar_percentiles():
    plan = _plan(N_USERS, DAYS, chunk=5, seed=606)
    batched = _shard_obs(plan)["wear"]
    scalar = np.array([
        oracle.run_lifetime(
            oracle.oracle_build(build_tlc_baseline(64.0)), _volumes(mix, seed)
        ).final.sys_wear_fraction
        for mix, seed in _identity(plan)
    ])
    # TLC populations are bit-identical, so the percentile regression is
    # an exact-equality claim, not a tolerance claim
    assert np.array_equal(batched, scalar)
    for q in (0.5, 0.9, 0.99):
        assert np.quantile(batched, q) == np.quantile(scalar, q)


def test_population_batch_grid_chunk_invariant():
    wear = {}
    for chunk in (1, 4, 7, N_USERS):  # 7: a ragged final chunk
        plan = _plan(N_USERS, DAYS, chunk=chunk, seed=606)
        assert sum(p["count"] for p in plan.shard_grid()) == N_USERS
        wear[chunk] = _shard_obs(plan)["wear"]
    assert np.array_equal(wear[1], wear[4])
    assert np.array_equal(wear[4], wear[7])
    assert np.array_equal(wear[7], wear[N_USERS])


def test_population_batch_point_supports_faults():
    plain = _shard_obs(_plan(4, 90, chunk=4, seed=17))["wear"].tolist()
    faulted = _shard_obs(_plan(4, 90, chunk=4, seed=17, faults=FAULTS))["wear"].tolist()
    assert len(faulted) == len(plain) == 4
    assert faulted != plain  # the plan visibly perturbed the fleet


@pytest.mark.parametrize("build,faults", [
    pytest.param("tlc_baseline", None, id="tlc"),
    pytest.param("sos", FAULTS, id="sos-faults"),
])
def test_population_points_match_finals_at_default_sampling(build, faults):
    """A population chunk's columns are its devices' end states: every
    value is bit-identical, in device order and dtype, to the ``final``
    of each device's own ``run_lifetime`` on the same build, volumes and
    fault plan."""
    days = 90
    plan = _plan(5, days, chunk=5, seed=17, build=build, faults=faults)
    identity = _identity(plan)
    finals = []
    for mix, ws in identity:
        volumes = MobileWorkload(
            WorkloadConfig(mix=mix, days=days, seed=ws)
        ).daily_volume_arrays()
        device = ALL_BUILDERS[build](64.0)
        fault_plan = plan_for_build(device, faults, days, ws)
        finals.append(run_lifetime(device, volumes, fault_plan=fault_plan).final)
    fields = {
        "wear": ("sys_wear_fraction", np.float64),
        "spare_wear": ("spare_wear_fraction", np.float64),
        "capacity_gb": ("capacity_gb", np.float64),
        "spare_quality": ("spare_quality", np.float64),
        "retired_groups": ("retired_groups", np.int64),
        "resuscitated_groups": ("resuscitated_groups", np.int64),
    }
    columns = _shard_obs(plan)
    assert columns.keys() == fields.keys()
    for column, (field, dtype) in fields.items():
        expected = np.array([getattr(f, field) for f in finals], dtype=dtype)
        assert columns[column].dtype == dtype
        assert columns[column].tobytes() == expected.tobytes(), column
    chunk = population_batch_observables({
        "mixes": [mix for mix, _ in identity],
        "workload_seeds": [ws for _, ws in identity],
        "capacity_gb": 64.0, "days": days, "build": build, "faults": faults,
    })
    assert chunk["wear"].tobytes() == columns["wear"].tobytes()


def test_population_chunk_refuses_lists_that_are_not_parallel():
    """Two mixes with four seeds is refused, not cut to two devices."""
    with pytest.raises(ValueError, match="parallel lists"):
        population_batch_observables({
            "mixes": ["typical", "light"], "workload_seeds": [1, 2, 3, 4],
            "capacity_gb": 64.0, "days": 30,
        })


def _oracle_sensitivity(plc_pec: float, waf: float) -> dict:
    """One A6 point on the scalar oracle: SOS with every partition's spec
    at ``waf`` under a PLC endurance override, one device at a time."""
    original = ENDURANCE_TABLE[CellTechnology.PLC]
    ENDURANCE_TABLE[CellTechnology.PLC] = dataclasses.replace(
        original, rated_pec=plc_pec
    )
    try:
        build = oracle.oracle_build(build_sos(64.0))
        for part in build.device.partitions.values():
            part.spec = dataclasses.replace(part.spec, waf=waf)
        final = oracle.run_lifetime(build, _volumes("typical", 111)).final
    finally:
        ENDURANCE_TABLE[CellTechnology.PLC] = original
    capacity_fraction = final.capacity_gb / 64.0
    return {
        "plc_pec": plc_pec,
        "waf": waf,
        "usable": final.spare_quality >= 0.85 and capacity_fraction >= 0.75,
        "capacity_fraction": capacity_fraction,
        "sys_wear": final.sys_wear_fraction,
        "quality": final.spare_quality,
        "carbon_ok": build.intensity_kg_per_gb < build_tlc_baseline(64.0).intensity_kg_per_gb,
    }


def test_sensitivity_batch_row_matches_scalar_grid():
    base = {"capacity_gb": 64.0, "mix": "typical", "days": DAYS,
            "workload_seed": 111}
    wafs = [1.5, 3.5]
    for plc_pec in (300, 700):
        row = sensitivity_batch_point({**base, "plc_pec": plc_pec, "wafs": wafs}, 0)
        assert [p["waf"] for p in row] == wafs
        # the swept WAF reaches the engine: wear differs across the row
        assert row[0]["sys_wear"] < row[1]["sys_wear"]
        for point in row:
            scalar = _oracle_sensitivity(plc_pec, point["waf"])
            assert point.keys() == scalar.keys()
            for key, value in scalar.items():
                assert point[key] == pytest.approx(value, rel=1e-9), (plc_pec, key)
