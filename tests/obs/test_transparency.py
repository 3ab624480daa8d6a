"""Observability must be invisible to the simulation.

Mirrors the zero-rate FaultPlan transparency test in
``tests/faults/test_plan.py``: with the default no-op observer a run is
*the* run, and turning collection on must not perturb a single bit of
its end state -- the observer never touches RNG or simulation state, it
only watches.
"""

from __future__ import annotations

import numpy as np

from repro.obs import NULL_OBSERVER, get_observer, observed
from repro.runner.points import split_point
from repro.sim.baselines import build_sos
from repro.sim.engine import run_lifetime
from repro.workloads.mobile import MobileWorkload, WorkloadConfig

#: The A2 split-sweep scenario, scaled to test size.
A2_POINT = {
    "spare_fraction": 0.5,
    "capacity_gb": 32.0,
    "mix": "typical",
    "days": 150,
    "workload_seed": 11,
}


class TestNoOpSingleton:
    def test_default_observer_is_the_shared_singleton(self):
        assert get_observer() is NULL_OBSERVER

    def test_disabled_span_allocates_nothing(self):
        # one shared context manager for every span on the no-op path
        assert NULL_OBSERVER.span("gc") is NULL_OBSERVER.span("scrub")
        with NULL_OBSERVER.span("anything"):
            pass

    def test_disabled_operations_are_no_ops(self):
        assert NULL_OBSERVER.count("c") is None
        assert NULL_OBSERVER.gauge("g", 1.0) is None
        assert NULL_OBSERVER.observe("h", 1.0) is None
        assert NULL_OBSERVER.event("kind", t=0.0, field=1) is None
        assert NULL_OBSERVER.enabled is False

    def test_observed_restores_previous_observer(self):
        with observed() as obs:
            assert get_observer() is obs
        assert get_observer() is NULL_OBSERVER


class TestBitIdentical:
    def test_a2_scenario_identical_with_obs_on_and_off(self):
        """Disabled vs enabled observability: bit-identical LifetimeResult."""
        bare = split_point(dict(A2_POINT), seed=0)
        with observed() as obs:
            watched = split_point(dict(A2_POINT), seed=0)
        assert watched["result"] == bare["result"]
        assert watched["gain"] == bare["gain"]
        assert watched["carbon_reduction"] == bare["carbon_reduction"]
        # and the watched run actually observed something
        assert obs.registry.snapshot()["counters"]["engine.days"] == A2_POINT["days"]

    def test_fixed_seed_run_identical_across_observed_repeats(self):
        volumes = MobileWorkload(
            WorkloadConfig(mix="typical", days=120, seed=5)
        ).daily_volume_arrays()
        builds = build_sos(32.0), build_sos(32.0)
        with observed() as first_obs:
            first = run_lifetime(builds[0], volumes)
        with observed() as second_obs:
            second = run_lifetime(builds[1], volumes)
        assert first == second
        assert first_obs.events == second_obs.events
        states = [build.device.export_state() for build in builds]
        for name, partition in states[0]["partitions"].items():
            for key, array in partition.items():
                assert np.array_equal(
                    array, states[1]["partitions"][name][key]
                ), (name, key)
