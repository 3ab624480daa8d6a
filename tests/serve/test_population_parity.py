"""One population request, one plan: ``repro population``, ``repro
submit population`` through the gateway's parse, and ``FleetPlan``'s own
defaults all name the same plan.

Each command is stopped where it hands over its work: ``population`` at
``run_fleet``, ``submit`` at the gateway client, so nothing runs and no
socket opens.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.fleet import FleetPlan
from repro.serve import JobSpec

#: 2.5 years, the CLI's default service life, in whole days
DEFAULT_DAYS = 912

#: flags -> the plan they name, spelled with ``FleetPlan``'s defaults
FLAG_SETS = {
    "defaults": ([], FleetPlan(n_devices=200, days=DEFAULT_DAYS)),
    "ftl": (
        ["--fidelity", "ftl", "--devices", "6", "--shard-size", "3",
         "--chunk", "3"],
        FleetPlan(n_devices=6, days=DEFAULT_DAYS, fidelity="ftl",
                  shard_size=3, chunk=3),
    ),
    "seed-cap": (
        ["--seed", "7", "--exact-cap", "10", "--chunk", "10"],
        FleetPlan(n_devices=200, days=DEFAULT_DAYS, seed=7, exact_cap=10,
                  chunk=10),
    ),
}


class _HandedOver(Exception):
    """Stops ``repro population`` once it has built its plan."""


def _population_plan(monkeypatch, flags: list[str]) -> FleetPlan:
    """The plan ``repro population`` hands to ``run_fleet``."""
    plans = []

    def run_fleet(plan, **kwargs):
        plans.append(plan)
        raise _HandedOver

    monkeypatch.setattr("repro.fleet.run_fleet", run_fleet)
    with pytest.raises(_HandedOver):
        main(["population", *flags])
    return plans[0]


def _submitted(monkeypatch, flags: list[str]) -> dict:
    """The submission body ``repro submit population`` sends."""
    bodies = []

    class Client:
        def __init__(self, host, port, timeout_s=None):
            pass

        async def submit(self, client, kind, params):
            bodies.append({"client": client, "kind": kind, "params": params})
            return 202, {"job_id": "j0", "state": "queued"}, {}

    monkeypatch.setattr("repro.serve.GatewayClient", Client)
    assert main(["submit", "population", *flags]) == 0
    return bodies[0]


@pytest.mark.parametrize(
    ("flags", "expected"), list(FLAG_SETS.values()), ids=list(FLAG_SETS)
)
def test_population_and_submit_name_one_plan(monkeypatch, capsys, flags, expected):
    plan = _population_plan(monkeypatch, flags)
    spec = JobSpec.from_wire(_submitted(monkeypatch, flags))
    assert FleetPlan.from_params(spec.params) == plan
    assert plan == expected


def test_omitted_wire_keys_take_the_plan_defaults():
    """The gateway fills a key the request leaves out from the field
    default, and the filled-in spelling is the same job."""
    spec = JobSpec.from_wire(
        {"client": "c", "kind": "population",
         "params": {"devices": 120, "days": 30}}
    )
    plan = FleetPlan(n_devices=120, days=30)
    assert FleetPlan.from_params(spec.params) == plan
    assert spec.params == plan.to_params()
    spelled_out = JobSpec.from_wire(
        {"client": "c", "kind": "population", "params": plan.to_params()}
    )
    assert spelled_out.job_id() == spec.job_id()
