"""FTL-fidelity jobs through the gateway's validation + execution core.

The gateway exposes the page-level fleet bridge as a ``population`` job
with ``fidelity: "ftl"`` (a full sharded fleet).  It must validate
strictly off the wire and produce results identical to driving the
fleet engine directly.
"""

from __future__ import annotations

import pytest

from repro.fleet import FleetPlan, run_fleet
from repro.serve import JobRecord, JobSpec, execute_job


def _population_spec(**overrides) -> JobSpec:
    params = {"devices": 6, "days": 20, "seed": 7, "shard_size": 3,
              "chunk": 3, "fidelity": "ftl"}
    params.update(overrides)
    return JobSpec.from_wire(
        {"client": "t", "kind": "population", "params": params}
    )


class TestValidation:
    def test_fidelity_key_always_written(self):
        assert _population_spec().params["fidelity"] == "ftl"
        epoch = _population_spec(fidelity="epoch")
        assert epoch.params["fidelity"] == "epoch"
        # an omitted fidelity is the epoch default: the same job
        omitted = JobSpec.from_wire(
            {"client": "t", "kind": "population",
             "params": {"devices": 6, "days": 20, "seed": 7,
                        "shard_size": 3, "chunk": 3}}
        )
        assert epoch.job_id() == omitted.job_id()
        assert _population_spec().job_id() != omitted.job_id()

    def test_unknown_fidelity_is_a_client_error(self):
        with pytest.raises(ValueError, match="fidelity"):
            _population_spec(fidelity="quantum")

    def test_faults_cannot_ride_an_ftl_job(self):
        with pytest.raises(ValueError, match="epoch"):
            _population_spec(faults={"flaky": 0.5})

    def test_ftl_job_replays_native_tlc_only(self):
        """The replay chip is native TLC: an FTL job naming another
        build is refused, not run as TLC and reported under that name."""
        with pytest.raises(ValueError, match="tlc_baseline"):
            _population_spec(build="sos")


class TestExecution:
    def test_ftl_population_job_end_to_end(self, tmp_path):
        """Gateway answer == driving the fleet engine directly."""
        record = JobRecord.fresh(_population_spec())
        seen = []
        result = execute_job(
            record, cache_dir=tmp_path / "cache", jobs=2, retries=2,
            timeout_s=None, durability="rename", on_progress=seen.append,
        )
        assert result["complete"] is True
        assert result["devices"] == 6
        assert result["errors"] == []
        assert seen[-1]["devices_done"] == 6

        direct = run_fleet(
            FleetPlan(n_devices=6, days=20, capacity_gb=64.0, seed=7,
                      shard_size=3, chunk=3, fidelity="ftl")
        )
        stats = direct.summary()
        for quantile in ("median", "p90", "p99", "max"):
            assert result[quantile] == stats[quantile]
