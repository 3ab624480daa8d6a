"""Acceptance: SIGKILL the gateway mid-job; a restart must converge.

The gateway process is killed without warning while a population job is
part-way through its shards.  A fresh gateway pointed at the same state
directory has to (a) notice the interrupted job in the journal, (b)
requeue it, and (c) finish it -- resuming from the shard cache rather
than recomputing -- to the *same* wear summary an uninterrupted run
produces.  That is the whole durability story in one test.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve import GatewayClient, JobRecord, JobSpec, execute_job

_SRC = Path(__file__).resolve().parents[2] / "src"

# 16 shards of 6 devices: ~0.35s per shard, so the job is reliably
# still in flight when the kill lands after the first shard completes
_POPULATION = {"devices": 96, "days": 365, "seed": 17, "shard_size": 6}


def _spawn_gateway(state_dir: Path, port_file: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--state-dir", str(state_dir),
            "--port", "0",
            "--port-file", str(port_file),
            "--max-running", "1",
            "--job-workers", "2",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _wait_for_port(port_file: Path, proc: subprocess.Popen,
                   timeout_s: float = 30.0) -> int:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if port_file.exists():
            return int(port_file.read_text().strip())
        if proc.poll() is not None:
            raise RuntimeError(
                f"gateway exited during startup:\n{proc.stdout.read()}"
            )
        time.sleep(0.05)
    raise TimeoutError("gateway never wrote its port file")


class TestRestartConvergence:
    def test_sigkill_mid_job_then_restart_resumes_and_converges(
        self, tmp_path
    ):
        state_dir = tmp_path / "state"
        first = _spawn_gateway(state_dir, tmp_path / "port-1")
        job_id = None
        try:
            port = _wait_for_port(tmp_path / "port-1", first)

            async def submit_and_wait_for_progress() -> tuple[str, dict]:
                client = GatewayClient("127.0.0.1", port, timeout_s=30.0)
                status, body, _ = await client.submit(
                    "restart-test", "population", _POPULATION
                )
                assert status == 202
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    _, view, _ = await client.job(body["job_id"])
                    progress = view.get("progress") or {}
                    if progress.get("shards_done", 0) >= 1:
                        return body["job_id"], view
                    await asyncio.sleep(0.05)
                raise TimeoutError("job never reported shard progress")

            job_id, view = asyncio.run(submit_and_wait_for_progress())
            # the kill must land mid-job or the test proves nothing
            assert view["state"] == "running"
            assert view["progress"]["shards_done"] < view["progress"]["shards_total"]

            first.send_signal(signal.SIGKILL)
            first.wait(timeout=10)
        finally:
            if first.poll() is None:
                first.kill()
                first.wait(timeout=10)

        second = _spawn_gateway(state_dir, tmp_path / "port-2")
        try:
            port = _wait_for_port(tmp_path / "port-2", second)

            async def wait_for_result() -> dict:
                client = GatewayClient("127.0.0.1", port, timeout_s=30.0)
                # the interrupted job was requeued from the journal: it is
                # already visible without resubmitting anything
                _, view, _ = await client.job(job_id)
                assert view["state"] in ("queued", "running", "done")
                return await client.wait(job_id, timeout_s=120.0)

            final = asyncio.run(wait_for_result())
        finally:
            if second.poll() is None:
                second.terminate()
                try:
                    second.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    second.kill()
                    second.wait(timeout=10)

        assert final["state"] == "done"
        result = final["result"]
        assert result["complete"] is True
        assert result["devices"] == _POPULATION["devices"]
        # resumed, not recomputed: the shards finished before the kill
        # came back from the result cache
        assert result["cached_shards"] >= 1

        # an uninterrupted run from a cold cache lands on the same summary
        spec = JobSpec.from_wire(
            {"client": "restart-test", "kind": "population",
             "params": dict(_POPULATION)}
        )
        assert spec.job_id() == job_id
        expected = execute_job(
            JobRecord.fresh(spec), cache_dir=tmp_path / "cold-cache", jobs=2,
            retries=2, timeout_s=None, durability="rename",
        )
        for stat in ("median", "p90", "p99", "max", "mean"):
            assert result[stat] == pytest.approx(expected[stat]), stat
        assert result["devices"] == expected["devices"]
