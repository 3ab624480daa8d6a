"""End-to-end gateway robustness: a real asyncio server on an ephemeral
port, driven through the real client, against real worker pools.

Each test tells one degradation story from the ISSUE's acceptance list:
over-quota clients are rejected deterministically while admitted work
completes; the queue refuses rather than buffers; cancellation tears
down in-flight workers; an unhealthy gateway sheds new submissions,
drains what is running, and recovers when the window ages out.
"""

from __future__ import annotations

import pytest

import asyncio

from repro.serve import ClientQuota, GatewayConfig, HealthThresholds


def _config(tmp_path, **overrides) -> GatewayConfig:
    defaults = dict(
        state_dir=tmp_path / "state",
        max_running=2,
        max_queue=16,
        job_workers=2,
        retries=2,
        rate_per_s=1000.0,
        burst=1000.0,
    )
    defaults.update(overrides)
    return GatewayConfig(**defaults)


def _tiny_population(seed=1, devices=12):
    return {"devices": devices, "days": 20, "seed": seed, "shard_size": 6}


async def _poll_health(client, want_status: int, timeout_s: float = 5.0):
    """Health folds just after a job's terminal state becomes visible;
    wait out that tiny scheduler race instead of asserting against it."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while True:
        status, report, headers = await client.health()
        if status == want_status or loop.time() >= deadline:
            return status, report, headers
        await asyncio.sleep(0.02)


def _sleepy(sleep_s: float, n: int = 1, tag: int = 0):
    return {
        "fn": "sleepy",
        "grid": [{"index": i, "sleep_s": sleep_s, "tag": tag} for i in range(n)],
        "base_seed": 1,
    }


class TestAdmissionPipeline:
    def test_over_quota_clients_reject_deterministically_while_admitted_complete(
        self, tmp_path, gateway_harness, run_async
    ):
        """Acceptance: N concurrent submissions beyond quota all answer
        429 with a concrete retry-after; the admitted jobs run to
        completion untouched; a freed slot admits again."""
        config = _config(tmp_path, quota=ClientQuota(max_concurrent=1))

        async def scenario():
            async with gateway_harness(config) as (gateway, client):
                status, body, _ = await client.submit(
                    "greedy", "sweep", _sleepy(1.5, n=2)
                )
                assert status == 202
                admitted_id = body["job_id"]

                # 4 concurrent over-quota submissions: all rejected the
                # same way, with the same concrete retry hint
                rejects = await asyncio.gather(*[
                    client.submit("greedy", "sweep", _sleepy(0.1, tag=i))
                    for i in range(1, 5)
                ])
                assert [s for s, _, _ in rejects] == [429] * 4
                for _, reject_body, headers in rejects:
                    assert "quota exceeded" in reject_body["error"]
                    assert reject_body["retry_after_s"] == 1.0
                    assert headers["retry-after"] == "1"

                # another tenant is not collateral damage
                status, body, _ = await client.submit(
                    "polite", "population", _tiny_population()
                )
                assert status == 202
                polite = await client.wait(body["job_id"], timeout_s=60)
                assert polite["state"] == "done"
                assert polite["result"]["complete"] is True

                admitted = await client.wait(admitted_id, timeout_s=60)
                assert admitted["state"] == "done"

                # the slot freed: a previously rejected job now admits
                status, _, _ = await client.submit(
                    "greedy", "sweep", _sleepy(0.1, tag=1)
                )
                assert status == 202

                _, health, _ = await client.health()
                assert health["counters"]["serve.shed.quota"] == 4

        run_async(scenario())

    def test_rate_limit_answers_429_with_retry_after(
        self, tmp_path, gateway_harness, run_async
    ):
        config = _config(tmp_path, rate_per_s=0.01, burst=2.0)

        async def scenario():
            async with gateway_harness(config) as (_, client):
                for tag in range(2):
                    status, _, _ = await client.submit(
                        "c", "sweep", _sleepy(0.05, tag=tag)
                    )
                    assert status == 202
                status, body, headers = await client.submit(
                    "c", "sweep", _sleepy(0.05, tag=9)
                )
                assert status == 429
                assert body["error"] == "rate limit exceeded"
                assert body["retry_after_s"] > 50  # ~1 token / 0.01 per s
                assert int(headers["retry-after"]) >= 1

        run_async(scenario())

    def test_full_queue_refuses_and_refunds_the_quota(
        self, tmp_path, gateway_harness, run_async
    ):
        config = _config(tmp_path, max_running=1, max_queue=1)

        async def scenario():
            async with gateway_harness(config) as (gateway, client):
                statuses = []
                for name in ("c1", "c2", "c3"):
                    status, body, _ = await client.submit(
                        name, "sweep", _sleepy(1.0)
                    )
                    statuses.append((status, body))
                assert statuses[0][0] == 202  # running
                assert statuses[1][0] == 202  # queued
                status, body = statuses[2]
                assert status == 429
                assert "backpressure" in body["error"]
                # the queue-full refusal must undo the quota reservation
                assert gateway.quotas.running("c3") == 0
                assert gateway.quotas.running("c2") == 1

        run_async(scenario())

    def test_resubmission_reattaches_instead_of_respending(
        self, tmp_path, gateway_harness, run_async
    ):
        async def scenario():
            async with gateway_harness(_config(tmp_path)) as (_, client):
                status, body, _ = await client.submit(
                    "c", "population", _tiny_population()
                )
                assert status == 202
                done = await client.wait(body["job_id"], timeout_s=60)
                status, again, _ = await client.submit(
                    "c", "population", _tiny_population()
                )
                assert status == 200
                assert again["deduplicated"] is True
                assert again["job_id"] == done["job_id"]
                assert again["state"] == "done"
                assert again["result"] == done["result"]
                _, health, _ = await client.health()
                assert health["counters"]["serve.deduplicated"] == 1
                assert health["counters"]["serve.admitted"] == 1

        run_async(scenario())

    def test_routing_rejects_unknown_paths_and_methods(
        self, tmp_path, gateway_harness, run_async
    ):
        async def scenario():
            async with gateway_harness(_config(tmp_path)) as (_, client):
                status, _, _ = await client.request("GET", "/nope")
                assert status == 404
                status, _, _ = await client.request("DELETE", "/jobs")
                assert status == 405
                status, _, _ = await client.request("POST", "/jobs", "not a dict")
                assert status == 400
                status, _, _ = await client.job("jdoesnotexist000")
                assert status == 404

        run_async(scenario())


class TestCancellation:
    def test_cancel_tears_down_an_in_flight_job(
        self, tmp_path, gateway_harness, run_async
    ):
        """The cancelled job's 30s of sleeping workers die immediately:
        reaching the terminal state fast is itself proof of teardown."""

        async def scenario():
            async with gateway_harness(_config(tmp_path)) as (_, client):
                status, body, _ = await client.submit(
                    "c", "sweep", _sleepy(30.0, n=2)
                )
                assert status == 202
                job_id = body["job_id"]
                while True:  # wait for it to leave the queue
                    _, view, _ = await client.job(job_id)
                    if view["state"] == "running":
                        break
                    await asyncio.sleep(0.02)
                status, body, _ = await client.cancel(job_id)
                assert status == 202 and body["cancel"] == "cancelling"
                view = await client.wait(job_id, timeout_s=20)
                assert view["state"] == "cancelled"
                assert "torn down" in view["error"]
                # a terminal job cannot be cancelled again
                status, _, _ = await client.cancel(job_id)
                assert status == 409

        run_async(scenario())

    def test_cancel_queued_job_is_instant(
        self, tmp_path, gateway_harness, run_async
    ):
        config = _config(tmp_path, max_running=1)

        async def scenario():
            async with gateway_harness(config) as (_, client):
                await client.submit("a", "sweep", _sleepy(5.0))
                status, queued, _ = await client.submit("b", "sweep", _sleepy(5.0))
                assert status == 202
                status, body, _ = await client.cancel(queued["job_id"])
                assert status == 202 and body["cancel"] == "cancelled"
                _, view, _ = await client.job(queued["job_id"])
                assert view["state"] == "cancelled"

        run_async(scenario())


class TestHealthDegradation:
    def test_unhealthy_gateway_sheds_drains_and_recovers(
        self, tmp_path, gateway_harness, run_async
    ):
        """Acceptance: past the failure threshold the gateway answers
        503 to new work, keeps serving status and dedup hits, finishes
        the jobs already in flight, and resumes admission once the
        rolling window clears."""
        config = _config(
            tmp_path,
            retries=0,
            thresholds=HealthThresholds(
                max_error_rate=0.5, min_sample=1, window=4
            ),
        )

        scratch = tmp_path / "scratch"
        scratch.mkdir()
        doomed_params = {
            "fn": "flaky",
            "grid": [{"index": 0, "fail_times": 99, "scratch": str(scratch)}],
            "base_seed": 0,
        }

        async def scenario():
            async with gateway_harness(config) as (_, client):
                # a slow healthy job that will still be running when the
                # gateway turns unhealthy -- it must drain normally
                status, slow, _ = await client.submit(
                    "c", "sweep", _sleepy(3.0, n=2)
                )
                assert status == 202
                # a job whose only point always raises: with no retries
                # it fails and trips the 1-sample error window
                status, doomed, _ = await client.submit(
                    "c", "sweep", doomed_params
                )
                assert status == 202
                failed = await client.wait(doomed["job_id"], timeout_s=60)
                assert failed["state"] == "done"  # ran, with failed points
                assert failed["result"]["complete"] is False

                # the health fold happens just after the terminal state
                # becomes visible; poll the flip rather than race it
                status, report, headers = await _poll_health(client, 503)
                assert status == 503
                assert report["healthy"] is False
                assert report["reasons"]
                assert int(headers["retry-after"]) >= 1

                # new work is shed with the same retry hint...
                status, body, headers = await client.submit(
                    "c", "population", _tiny_population(seed=99)
                )
                assert status == 503
                assert "unhealthy" in body["error"]
                assert headers["retry-after"] == "5"
                # ...but the dedup fast path stays open while shedding
                status, view, _ = await client.submit(
                    "c", "sweep", doomed_params
                )
                assert status == 200 and view["deduplicated"] is True

                # the in-flight job drains to completion despite shedding
                drained = await client.wait(slow["job_id"], timeout_s=60)
                assert drained["state"] == "done"
                assert drained["result"]["complete"] is True

                # its success ages the window to 1 failure in 2 = 0.5,
                # back under the threshold: admission resumes
                status, report, _ = await _poll_health(client, 200)
                assert status == 200 and report["healthy"] is True
                status, _, _ = await client.submit(
                    "c", "population", _tiny_population(seed=99)
                )
                assert status == 202

        run_async(scenario())


class TestFairShare:
    def test_single_job_client_is_not_starved_by_a_queue_hog(
        self, tmp_path, gateway_harness, run_async
    ):
        """With one execution slot, a client queueing three jobs ahead
        of another's single job still only gets one turn before the
        other client runs: round-robin, not FIFO-by-arrival."""
        config = _config(
            tmp_path, max_running=1, quota=ClientQuota(max_concurrent=8)
        )

        async def scenario():
            async with gateway_harness(config) as (_, client):
                hog_ids = []
                for tag in range(3):
                    status, body, _ = await client.submit(
                        "hog", "sweep", _sleepy(0.3, tag=tag)
                    )
                    assert status == 202
                    hog_ids.append(body["job_id"])
                status, body, _ = await client.submit(
                    "solo", "sweep", _sleepy(0.3, tag=99)
                )
                assert status == 202
                solo_id = body["job_id"]

                views = [
                    await client.wait(jid, timeout_s=60)
                    for jid in hog_ids + [solo_id]
                ]
                assert all(v["state"] == "done" for v in views)
                finished_at = {v["job_id"]: v["updated_at"] for v in views}
                # solo finished before the hog's *last* job: it did not
                # wait out the whole backlog
                assert finished_at[solo_id] < finished_at[hog_ids[-1]]

        run_async(scenario())


class TestJournalRecovery:
    def test_journaled_job_naming_a_removed_fn_fails_and_the_gateway_runs_on(
        self, tmp_path, gateway_harness, run_async
    ):
        """A job journaled before its sweep fn left the registry is
        re-run after recovery: it fails, the journal records why, and
        the gateway keeps serving."""
        from repro.serve import JobRecord, JobSpec, JobStore

        config = _config(tmp_path)
        stale = JobRecord.fresh(JobSpec(
            client="c", kind="sweep",
            params={"fn": "population_batch", "grid": [{"index": 0}], "base_seed": 0},
        ))
        stale.state = "running"
        JobStore(config.state_dir / "jobs").save(stale)

        async def scenario():
            async with gateway_harness(config) as (_, client):
                failed = await client.wait(stale.job_id, timeout_s=30)
                assert failed["state"] == "failed"
                assert "population_batch" in failed["error"]
                status, body, _ = await client.submit("c", "sweep", _sleepy(0.01))
                assert status == 202
                done = await client.wait(body["job_id"], timeout_s=30)
                assert done["state"] == "done"

        run_async(scenario())
        journaled = JobStore(config.state_dir / "jobs").load(stale.job_id)
        assert journaled.state == "failed"
        assert "no longer registered" in journaled.error
