"""The health check's gate: RBER is evaluated only near the failing PEC.

``BatchPartition._health_check`` skips its ``rber_many`` pass when no
live group's PEC reaches ``_safe_pec`` -- the PEC where the mode's RBER
after the health horizon climbs to half of ``max_rber`` -- for any mode
on the partition's ladder.  These tests pin that the gate is exact:
below the bound ``rber_many`` never exceeds ``max_rber``, and a gated
check retires and resuscitates exactly what the full evaluation does,
for every mode on every build's ladder, under an endurance-table
override (the bound follows it), and for a target the model reaches
only above 100x rated endurance.

``run_lifetime_batch`` resolves the bound and the ladder's error models
once a run: the calls that resolve them do not grow with the days a
run steps, and a run after an endurance-table override resolves them
afresh rather than carrying the previous run's.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.batch as batch
from repro.flash.cell import CellTechnology, native_mode
from repro.flash.error_model import ErrorModel, cached_error_model
from repro.flash.reliability import ENDURANCE_TABLE
from repro.sim.baselines import ALL_BUILDERS, build_plc_naive, build_tlc_baseline
from repro.sim.batch import (
    BatchPartition,
    SummaryBatch,
    _safe_pec,
    run_lifetime_batch,
)

N_DEVICES = 4

#: every (build, partition) of the builds, with its spec
PARTITIONS = [
    (build, name, partition.spec)
    for build, builder in ALL_BUILDERS.items()
    for name, partition in builder(64.0).device.partitions.items()
]
#: every mode on every build's ladder, with the spec it belongs to
LADDER_MODES = [
    (build, name, spec, mode)
    for build, name, spec in PARTITIONS
    for mode in BatchPartition(spec, 1)._mode_ladder
]


def _bound(spec) -> float:
    """The gate's bound for ``spec``: the lowest over its ladder."""
    return min(
        _safe_pec(cached_error_model(mode), spec.max_rber,
                  spec.health_horizon_years)
        for mode in BatchPartition(spec, 1)._mode_ladder
    )


def _checked(spec, state: dict, now: float, gated: bool = True) -> dict:
    """A partition's state after one health check from ``state``;
    ``gated=False`` evaluates RBER on every day, as before the gate."""
    partition = BatchPartition(spec, N_DEVICES)
    partition.import_state(state)
    if gated:
        partition._health_check(now)
    else:
        with mock.patch.object(batch, "_safe_pec", lambda *args: 0.0):
            partition._health_check(now)
    return partition.export_state()


def _assert_same(gated: dict, full: dict) -> None:
    assert gated.keys() == full.keys()
    for field, array in full.items():
        assert gated[field].dtype == array.dtype, field
        assert np.array_equal(gated[field], array), field


horizons = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
max_rbers = st.floats(min_value=-7.0, max_value=0.0).map(lambda e: 10.0 ** e)
#: PEC as a multiple of the bound: exactly on it, just either side, far off
factors = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0, 10.0]),
    st.floats(min_value=0.0, max_value=4.0),
)


@settings(max_examples=200, deadline=None)
@given(
    case=st.sampled_from(LADDER_MODES),
    horizon=horizons,
    max_rber=max_rbers,
    below=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                   min_size=1, max_size=16),
)
def test_no_pec_below_the_bound_fails(case, horizon, max_rber, below):
    """Below the bound the vectorized RBER stays within ``max_rber``."""
    _, _, _, mode = case
    model = cached_error_model(mode)
    bound = _safe_pec(model, max_rber, horizon)
    assert np.isfinite(bound) and bound >= 0.0
    pec = np.array(below) * bound
    pec = np.append(pec, np.nextafter(bound, 0.0) if bound > 0.0 else 0.0)
    pec = pec[pec < bound]
    assert (model.rber_many(pec, np.full(pec.shape, horizon)) <= max_rber).all()


@settings(max_examples=100, deadline=None)
@given(
    case=st.sampled_from(PARTITIONS),
    horizon=horizons,
    max_rber=max_rbers,
    data=st.data(),
)
def test_gated_check_matches_the_full_evaluation(case, horizon, max_rber, data):
    """Same retirements, resuscitations and state, lane for lane."""
    _, _, spec = case
    spec = dataclasses.replace(spec, health_horizon_years=horizon,
                               max_rber=max_rber)
    ladder = BatchPartition(spec, 1)._mode_ladder
    shape = (N_DEVICES, spec.n_groups)
    lanes = shape[0] * shape[1]
    # some states hold only some of the ladder's modes
    held = data.draw(st.lists(st.integers(0, len(ladder) - 1), min_size=1,
                              unique=True))
    mode_idx = np.array(data.draw(st.lists(
        st.sampled_from(held), min_size=lanes, max_size=lanes,
    ))).reshape(shape)
    # each lane's PEC on either side of its own mode's bound, or of the
    # mode's rated PEC where the bound is 0 (never skip)
    scale = np.array([
        _safe_pec(cached_error_model(mode), max_rber, horizon)
        or float(cached_error_model(mode).rated_pec)
        for mode in ladder
    ])[mode_idx]
    pec = scale * np.array(data.draw(st.lists(
        factors, min_size=lanes, max_size=lanes,
    ))).reshape(shape)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    retired = rng.random(shape) < data.draw(st.sampled_from([0.0, 0.2]))
    capacity = spec.capacity_gb / spec.n_groups * (
        np.array([m.operating_bits for m in ladder])[mode_idx]
        / spec.mode.operating_bits
    )
    state = BatchPartition(spec, N_DEVICES).export_state()
    state.update(
        capacity_gb=capacity,
        pec=pec,
        write_time=rng.random(shape),
        live_gb=np.where(retired, 0.0, capacity * rng.random(shape)),
        retired=retired,
        mode_bits=np.array([m.operating_bits for m in ladder])[mode_idx],
    )
    now = 1.5
    _assert_same(_checked(spec, state, now), _checked(spec, state, now, False))


def _worn(builder, pec: float) -> tuple:
    """A fresh partition's spec and a state with every group at ``pec``."""
    spec = builder(64.0).device.partitions["main"].spec
    state = BatchPartition(spec, N_DEVICES).export_state()
    state["pec"] = np.full_like(state["pec"], pec)
    state["live_gb"] = state["capacity_gb"] / 2
    return spec, state


def test_bound_follows_an_endurance_table_override():
    """A6 lowers PLC endurance mid-process: the bound must move with it,
    with no stale cache entry from before the override."""
    spec, state = _worn(build_plc_naive, 300.0)
    mode = native_mode(CellTechnology.PLC)
    before = _bound(spec)
    assert 300.0 < before  # the gate skips this PEC at rated 500 ...
    assert _checked(spec, state, 1.0)["retired_count"].sum() == 0
    original = ENDURANCE_TABLE[CellTechnology.PLC]
    try:
        ENDURANCE_TABLE[CellTechnology.PLC] = dataclasses.replace(
            original, rated_pec=200
        )
        patched = _bound(spec)
        assert patched == ErrorModel(mode).pec_for_rber(
            spec.max_rber / 2, spec.health_horizon_years
        )
        assert patched < 300.0  # ... and must not at rated 200
        gated = _checked(spec, state, 1.0)
        assert gated["retired_count"].sum() == N_DEVICES * spec.n_groups
        _assert_same(gated, _checked(spec, state, 1.0, gated=False))
    finally:
        ENDURANCE_TABLE[CellTechnology.PLC] = original
    assert _bound(spec) == before


@pytest.mark.parametrize("pec_multiple", [50.0, 99.0, 100.0, 200.0, 300.0])
def test_target_out_of_reach_below_100x_rated(pec_multiple):
    """``pec_for_rber`` answers inf when its target is out of reach below
    100x rated, though the curve may reach it above: the gate stops at
    100x rated instead of trusting inf."""
    spec, _ = _worn(build_tlc_baseline, 0.0)
    spec = dataclasses.replace(spec, max_rber=0.04)
    original = ENDURANCE_TABLE[CellTechnology.TLC]
    try:
        # a cleaner part: 0.04 is reached only near 210x rated
        ENDURANCE_TABLE[CellTechnology.TLC] = dataclasses.replace(
            original, baseline_rber=1e-11
        )
        model = cached_error_model(spec.mode)
        horizon = spec.health_horizon_years
        assert model.pec_for_rber(spec.max_rber / 2, horizon) == float("inf")
        assert model.rber(300.0 * model.rated_pec, horizon) > spec.max_rber
        assert _bound(spec) == 100.0 * model.rated_pec
        state = BatchPartition(spec, N_DEVICES).export_state()
        state["pec"] = np.full_like(
            state["pec"], pec_multiple * model.rated_pec
        )
        state["live_gb"] = state["capacity_gb"] / 2
        gated = _checked(spec, state, 1.0)
        _assert_same(gated, _checked(spec, state, 1.0, gated=False))
        failing = model.rber(pec_multiple * model.rated_pec, horizon) > spec.max_rber
        assert (gated["retired_count"].sum() > 0) == failing
    finally:
        ENDURANCE_TABLE[CellTechnology.TLC] = original


def test_epoch_fleet_devices_never_reach_the_bound():
    """The tlc baseline's bound sits far above a 90-day fleet's wear, so
    a fleet chunk makes no RBER pass before its end state."""
    spec = build_tlc_baseline(64.0).device.partitions["main"].spec
    assert _bound(spec) > 0.5 * 9070.0
    calls = []
    real = ErrorModel.rber_many

    def counting(self, *args, **kwargs):
        calls.append(self.mode)
        return real(self, *args, **kwargs)

    from repro.fleet.points import population_batch_observables

    with mock.patch.object(ErrorModel, "rber_many", counting):
        population_batch_observables({
            "mixes": ["heavy", "adversarial", "typical"],
            "workload_seeds": [1, 2, 3], "capacity_gb": 64.0, "days": 90,
            "build": "tlc_baseline",
        })
    # the end state's quality and uncorrectable estimates only
    assert len(calls) == 2


def _resolving_calls(days: int) -> tuple[int, int]:
    """Calls of ``cached_error_model`` and ``_safe_pec`` in one
    fault-free 10-device tlc chunk of ``days`` days."""
    from repro.fleet.points import population_batch_observables

    with mock.patch.object(
        batch, "cached_error_model", wraps=batch.cached_error_model
    ) as models, mock.patch.object(
        batch, "_safe_pec", wraps=batch._safe_pec
    ) as bounds:
        population_batch_observables({
            "mixes": ["light", "typical", "heavy", "adversarial", "typical"] * 2,
            "workload_seeds": list(range(1, 11)), "capacity_gb": 64.0,
            "days": days, "build": "tlc_baseline",
        })
    return models.call_count, bounds.call_count


def test_per_run_constants_do_not_grow_with_days():
    short = _resolving_calls(30)
    assert short == _resolving_calls(90)
    assert min(short) >= 1


def test_a_run_after_an_override_resolves_its_constants_afresh():
    """A6 installs an endurance-table override between two runs of one
    spec (``runner/points.py``).  The run after it retires exactly the
    groups that a run under the override retires when it evaluates RBER
    every day."""
    def volumes(*gb: float) -> np.ndarray:
        return np.tile(np.array(gb)[:, None], (1, 12))

    summary = SummaryBatch(
        day=np.arange(12), new_media_gb=volumes(3.0, 1.5, 0.3),
        new_other_gb=volumes(3.0, 1.5, 0.3), overwrite_gb=volumes(1.0, 0.5, 0.1),
        delete_gb=volumes(0.2, 0.1, 0.02),
    )

    def run(gated: bool = True) -> tuple:
        builds = [build_plc_naive(1.0) for _ in range(3)]
        if gated:
            end = run_lifetime_batch(builds, summary)
        else:
            with mock.patch.object(batch, "_safe_pec", lambda *args: 0.0):
                end = run_lifetime_batch(builds, summary)
        return end.retired_groups, [b.device.export_state() for b in builds]

    assert not run()[0].any()  # at rated 500 nothing retires ...
    original = ENDURANCE_TABLE[CellTechnology.PLC]
    try:
        ENDURANCE_TABLE[CellTechnology.PLC] = dataclasses.replace(
            original, rated_pec=200
        )
        retired, states = run()
        full_retired, full_states = run(gated=False)
    finally:
        ENDURANCE_TABLE[CellTechnology.PLC] = original
    assert retired.any()  # ... and at rated 200 the heaviest device's groups do
    assert np.array_equal(retired, full_retired)
    for state, full in zip(states, full_states):
        _assert_same(state["partitions"]["main"], full["partitions"]["main"])
