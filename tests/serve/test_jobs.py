"""Job specs, the crash journal, and the blocking execution core."""

from __future__ import annotations

import json

import pytest

from repro.serve import (
    JobRecord,
    JobSpec,
    JobStore,
    execute_job,
    spec_units,
)


def _population_spec(**overrides) -> JobSpec:
    params = {"devices": 20, "days": 30, "seed": 7, "shard_size": 10}
    params.update(overrides)
    return JobSpec.from_wire(
        {"client": "t", "kind": "population", "params": params}
    )


def _sweep_spec(grid, fn="flaky", client="t") -> JobSpec:
    return JobSpec.from_wire(
        {
            "client": client,
            "kind": "sweep",
            "params": {"fn": fn, "grid": grid, "base_seed": 3},
        }
    )


class TestJobSpec:
    def test_identity_is_stable_and_param_sensitive(self):
        a, b = _population_spec(), _population_spec()
        assert a.job_id() == b.job_id()
        assert a.job_id() != _population_spec(devices=21).job_id()
        # a different client is a different job (quota isolation)
        other = JobSpec.from_wire(
            {"client": "u", "kind": "population", "params": a.params}
        )
        assert other.job_id() != a.job_id()

    def test_units_charge_devices_or_points(self):
        assert spec_units(_population_spec(devices=500, shard_size=50)) == 500
        assert spec_units(_sweep_spec([{"index": i} for i in range(3)])) == 3

    @pytest.mark.parametrize(
        ("payload", "match"),
        [
            ("not a dict", "JSON object"),
            ({"kind": "population", "params": {"days": 30}}, "client"),
            ({"client": "", "kind": "population",
              "params": {"devices": 1, "days": 30}}, "client"),
            ({"client": "c", "kind": "teapot", "params": {}}, "kind"),
            ({"client": "c", "kind": "population",
              "params": {"devices": 0, "days": 30}}, "devices"),
            ({"client": "c", "kind": "population",
              "params": {"devices": 10**9, "days": 30}}, "devices"),
            ({"client": "c", "kind": "sweep",
              "params": {"fn": "os.system", "grid": [{}]}}, "fn"),
            ({"client": "c", "kind": "sweep",
              "params": {"fn": "flaky", "grid": []}}, "grid"),
            # plans no shard could run: FleetPlan rejects them up front
            ({"client": "c", "kind": "population",
              "params": {"devices": 5, "days": 30, "build": "nope"}},
             "unknown build"),
            ({"client": "c", "kind": "population",
              "params": {"devices": 5, "days": 30, "faults": {"nope": 0.1}}},
             "unknown fault"),
            ({"client": "c", "kind": "population",
              "params": {"devices": 5, "days": 30,
                         "faults": {"power_loss_rate": -0.1}}},
             "power_loss_rate"),
            ({"client": "c", "kind": "population",
              "params": {"devices": 5, "days": 30, "exact_cap": -1}},
             "exact_cap"),
            ({"client": "c", "kind": "population",
              "params": {"devices": 5, "days": 30, "seed": None}}, "seed"),
            # population numbers are type-checked, never coerced
            ({"client": "c", "kind": "population",
              "params": {"devices": 5, "days": 30, "seed": 1.7}}, "seed"),
            ({"client": "c", "kind": "population",
              "params": {"devices": 5, "days": 30, "seed": True}}, "seed"),
            ({"client": "c", "kind": "population",
              "params": {"devices": 5, "days": 30, "seed": -1}}, "seed"),
            ({"client": "c", "kind": "population",
              "params": {"devices": 5, "days": 30, "shard_size": 2.9}},
             "shard_size"),
            ({"client": "c", "kind": "population",
              "params": {"devices": 5, "days": 30, "chunk": True}}, "chunk"),
            ({"client": "c", "kind": "population",
              "params": {"devices": 5, "days": 30, "exact_cap": 1.5}},
             "exact_cap"),
            ({"client": "c", "kind": "population",
              "params": {"devices": 5, "days": 30, "capacity_gb": True}},
             "capacity_gb"),
            ({"client": "c", "kind": "population",
              "params": {"devices": 5, "days": 30, "capacity_gb": "64"}},
             "capacity_gb"),
            ({"client": "c", "kind": "population",
              "params": {"devices": 5, "days": 30,
                         "faults": {"power_loss_rate": True}}}, "faults"),
            ({"client": "c", "kind": "population",
              "params": {"devices": True, "days": 30}}, "devices"),
            ({"client": "c", "kind": "population",
              "params": {"devices": 5, "days": True}}, "days"),
            # a sweep's root seed is a non-negative int, never coerced
            ({"client": "c", "kind": "sweep",
              "params": {"fn": "flaky", "grid": [{}], "base_seed": None}},
             "base_seed"),
            ({"client": "c", "kind": "sweep",
              "params": {"fn": "flaky", "grid": [{}], "base_seed": 1.7}},
             "base_seed"),
            ({"client": "c", "kind": "sweep",
              "params": {"fn": "flaky", "grid": [{}], "base_seed": True}},
             "base_seed"),
            ({"client": "c", "kind": "sweep",
              "params": {"fn": "flaky", "grid": [{}], "base_seed": [1]}},
             "base_seed"),
            ({"client": "c", "kind": "sweep",
              "params": {"fn": "flaky", "grid": [{}], "base_seed": -1}},
             "base_seed"),
            # a key FleetPlan's wire form does not name is refused, never
            # dropped: a misspelt key would otherwise run as its default
            ({"client": "c", "kind": "population",
              "params": {"devices": 120, "days": 30, "shard_sise": 7}},
             "unknown population key.*shard_sise"),
            ({"client": "c", "kind": "population",
              "params": {"devices": 120, "days": 30,
                         "mix_weights": {"heavy": 1.0}}},
             "unknown population key.*mix_weights"),
            # the population size and service life have no default
            ({"client": "c", "kind": "population", "params": {"devices": 5}},
             "'days' is required"),
            # an omitted shard size means chunk; zero is not a shard size
            ({"client": "c", "kind": "population",
              "params": {"devices": 5, "days": 30, "shard_size": 0}},
             "shard_size"),
            ({"client": "c", "kind": "population",
              "params": {"devices": 5, "days": 36501}}, "days.*36500"),
        ],
        ids=["non-dict", "no-client", "empty-client", "bad-kind",
             "zero-devices", "absurd-devices", "unregistered-fn",
             "empty-grid", "unknown-build", "unknown-fault", "negative-fault",
             "negative-exact-cap", "null-seed", "float-seed", "bool-seed",
             "negative-seed", "float-shard-size", "bool-chunk",
             "float-exact-cap", "bool-capacity", "string-capacity",
             "bool-fault-rate", "bool-devices", "bool-days",
             "sweep-null-base-seed",
             "sweep-float-base-seed", "sweep-bool-base-seed",
             "sweep-list-base-seed", "sweep-negative-base-seed",
             "misspelt-shard-size", "mix-weights", "no-days",
             "zero-shard-size", "absurd-days"],
    )
    def test_invalid_submissions_rejected(self, payload, match):
        with pytest.raises(ValueError, match=match):
            JobSpec.from_wire(payload)

    def test_valid_numbers_keep_their_canonical_params(self):
        """Type checks refuse, they never rewrite: an int capacity is
        still canonicalized to a float, and a valid spec's params and
        job id are those of the same spec written with floats."""
        spec = _population_spec(capacity_gb=32, faults={"power_loss_rate": 1})
        assert spec.params["capacity_gb"] == 32.0
        assert isinstance(spec.params["capacity_gb"], float)
        assert spec.params["faults"] == {"power_loss_rate": 1.0}
        same = _population_spec(capacity_gb=32.0, faults={"power_loss_rate": 1.0})
        assert spec.params == same.params
        assert spec.job_id() == same.job_id()

    def test_unregistered_code_never_rides_the_wire(self):
        """The registry is the whole attack surface: a spec names a
        function, it can never carry one."""
        from repro.serve import SWEEP_POINT_FNS

        assert set(SWEEP_POINT_FNS) == {"lifetime", "flaky", "crash", "sleepy"}
        for target in SWEEP_POINT_FNS.values():
            assert target.startswith("repro.runner.")


class TestJobStore:
    def test_save_load_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        record = JobRecord.fresh(_population_spec())
        record.state = "done"
        record.result = {"devices": 20}
        store.save(record)
        loaded = store.load(record.job_id)
        assert loaded.state == "done"
        assert loaded.result == {"devices": 20}
        assert loaded.spec == record.spec

    def test_corrupt_journal_is_skipped_and_counted_never_fatal(self, tmp_path):
        store = JobStore(tmp_path)
        good = JobRecord.fresh(_population_spec())
        store.save(good)
        (tmp_path / "jdeadbeefdeadbeef.json").write_text("{torn")
        (tmp_path / "jfeedfacefeedface.json").write_text(
            json.dumps({"schema": "repro.serve.job/v1", "state": "exploded"})
        )
        records = store.load_all()
        assert [r.job_id for r in records] == [good.job_id]
        assert store.corrupt_skipped == 2

    def test_recover_requeues_only_interrupted_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        states = {}
        for i, state in enumerate(("queued", "running", "done", "failed")):
            record = JobRecord.fresh(_population_spec(seed=100 + i))
            record.state = state
            record.progress = {"shards_done": 1}
            store.save(record)
            states[record.job_id] = state
        recovered = store.recover()
        assert {r.job_id for r in recovered} == {
            jid for jid, s in states.items() if s in ("queued", "running")
        }
        for record in store.load_all():
            expected = states[record.job_id]
            if expected in ("queued", "running"):
                assert record.state == "queued"
                assert record.progress == {}  # cache, not this, resumes work
            else:
                assert record.state == expected

    def test_malformed_job_id_never_escapes_the_root(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(ValueError):
            store.load("../../etc/passwd")


class TestExecuteJob:
    def test_population_job_produces_complete_summary(self, tmp_path):
        record = JobRecord.fresh(_population_spec())
        seen = []
        result = execute_job(
            record, cache_dir=tmp_path / "cache", jobs=2, retries=2,
            timeout_s=None, durability="rename", on_progress=seen.append,
        )
        assert result["complete"] is True
        assert result["devices"] == 20
        assert result["errors"] == []
        assert result["median"] is not None
        assert seen[-1]["shards_done"] == seen[-1]["shards_total"] == 2
        assert seen[-1]["devices_done"] == 20

    def test_identical_specs_share_the_result_cache(self, tmp_path):
        cache = tmp_path / "cache"
        settings = dict(
            cache_dir=cache, jobs=2, retries=2, timeout_s=None, durability="rename"
        )
        first = execute_job(JobRecord.fresh(_population_spec()), **settings)
        second = execute_job(JobRecord.fresh(_population_spec()), **settings)
        assert first["cached_shards"] == 0
        assert second["cached_shards"] == 2  # byte-identical cache keys
        for stat in ("median", "p90", "p99", "max", "mean"):
            assert first[stat] == second[stat]

    def test_worker_crash_mid_job_completes_via_retry(self, tmp_path):
        """A worker process dying (os._exit, as an OOM kill would) costs
        a pool rebuild and a retry, never the job."""
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        grid = [{"index": 0, "crash_times": 1, "scratch": str(scratch)},
                {"index": 1}, {"index": 2}]
        record = JobRecord.fresh(_sweep_spec(grid, fn="crash"))
        result = execute_job(
            record, cache_dir=tmp_path / "cache", jobs=2, retries=2,
            timeout_s=None, durability="rename",
        )
        assert result["complete"] is True
        assert result["failed"] == 0
        assert result["pool_rebuilds"] >= 1
        assert [v["index"] for v in result["values"]] == [0, 1, 2]

    def test_flaky_points_recover_with_correct_values(self, tmp_path):
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        grid = [{"index": i, "fail_times": 1 if i == 0 else 0,
                 "scratch": str(scratch)} for i in range(3)]
        record = JobRecord.fresh(_sweep_spec(grid, fn="flaky"))
        result = execute_job(
            record, cache_dir=tmp_path / "cache", jobs=2, retries=2,
            timeout_s=None, durability="rename",
        )
        assert result["complete"] is True
        assert result["retry_attempts"] >= 1
        assert result["values"][0]["attempts"] == 2

    def test_cancellation_raises_sweep_cancelled(self, tmp_path):
        from repro.runner import SweepCancelled

        record = JobRecord.fresh(_population_spec(devices=40, days=365))
        with pytest.raises(SweepCancelled):
            execute_job(
                record, cache_dir=tmp_path / "cache", jobs=2, retries=2,
                timeout_s=None, durability="rename", should_stop=lambda: True,
            )


class TestCodeIdentity:
    def test_job_ids_do_not_outlive_the_code(
        self, tmp_path, monkeypatch, gateway_harness, run_async
    ):
        """The same spec under other code is a new job: the dedup gate
        re-attaches a resubmission only while the source is unchanged,
        and the new job's shards are not served from the old cache."""
        from repro.serve import GatewayConfig

        params = {"devices": 12, "days": 20, "seed": 1, "shard_size": 6}
        spec = JobSpec.from_wire(
            {"client": "c", "kind": "population", "params": params}
        )
        today = spec.job_id()
        config = GatewayConfig(state_dir=tmp_path / "state", job_workers=1)

        async def scenario():
            async with gateway_harness(config) as (_, client):
                status, body, _ = await client.submit("c", "population", params)
                assert status == 202 and body["job_id"] == today
                first = await client.wait(today, timeout_s=60)
                assert first["state"] == "done"

                # the same spec under other code: job id and shard keys move
                for module in ("repro.serve.jobs", "repro.runner.sweep"):
                    monkeypatch.setattr(
                        f"{module}.code_fingerprint", lambda: "0" * 64
                    )
                assert spec.job_id() != today

                status, body, _ = await client.submit("c", "population", params)
                assert status == 202  # new work, not a 200 "deduplicated"
                assert "deduplicated" not in body
                assert body["job_id"] == spec.job_id()
                again = await client.wait(body["job_id"], timeout_s=60)
                assert again["state"] == "done"
                assert again["result"]["cached_shards"] == 0

        run_async(scenario())
