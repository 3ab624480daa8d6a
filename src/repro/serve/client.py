"""Asyncio client for the gateway: one small helper, shared by the CLI
and the robustness tests.

Connections are one-shot (mirroring the server's ``Connection: close``
protocol), so a client instance is just an address plus a timeout --
safe to share across tasks, trivial to hammer a gateway with hundreds
of concurrent submissions from a single test process.

Every call returns ``(status, payload, headers)`` rather than raising
on 4xx/5xx: rejection *is* the signal under test (and the CLI wants to
print the body either way).  :meth:`GatewayClient.wait` polls a job to
a terminal state, honouring the poll interval; pair it with
:meth:`submit` for a blocking "run this job" round trip.
"""

from __future__ import annotations

import json
from typing import Any

import asyncio

from .protocol import MAX_BODY_BYTES

__all__ = ["GatewayClient", "GatewayError"]


class GatewayError(RuntimeError):
    """Transport-level failure talking to the gateway (not a 4xx/5xx)."""


class GatewayClient:
    """Minimal HTTP/1.1 client against one gateway address."""

    def __init__(self, host: str, port: int, timeout_s: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    async def request(
        self, method: str, path: str, payload: Any = None
    ) -> tuple[int, Any, dict[str, str]]:
        """One request/response round trip on a fresh connection."""
        body = b""
        if payload is not None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
        lines = [
            f"{method} {path} HTTP/1.1",
            f"host: {self.host}:{self.port}",
            "connection: close",
            f"content-length: {len(body)}",
            "content-type: application/json",
        ]
        raw = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body
        try:
            return await asyncio.wait_for(
                self._round_trip(raw), timeout=self.timeout_s
            )
        except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
            raise GatewayError(
                f"gateway at {self.host}:{self.port} unreachable: {exc!r}"
            ) from exc
        except asyncio.TimeoutError as exc:
            raise GatewayError(
                f"gateway at {self.host}:{self.port} did not answer within "
                f"{self.timeout_s}s"
            ) from exc

    async def _round_trip(self, raw: bytes) -> tuple[int, Any, dict[str, str]]:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            writer.write(raw)
            await writer.drain()
            status_line = (await reader.readline()).decode("ascii", "replace")
            parts = status_line.split(maxsplit=2)
            if len(parts) < 2 or not parts[0].startswith("HTTP/"):
                raise GatewayError(f"malformed status line {status_line!r}")
            status = int(parts[1])
            headers: dict[str, str] = {}
            while True:
                line = (await reader.readline()).decode("ascii", "replace").strip()
                if not line:
                    break
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0"))
            if length > MAX_BODY_BYTES:
                raise GatewayError(f"response body of {length} bytes is absurd")
            body = await reader.readexactly(length) if length else b""
            payload = json.loads(body.decode("utf-8")) if body else None
            return status, payload, headers
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- conveniences ----------------------------------------------------------

    async def health(self) -> tuple[int, Any, dict[str, str]]:
        return await self.request("GET", "/healthz")

    async def metrics(self) -> tuple[int, Any, dict[str, str]]:
        return await self.request("GET", "/metrics")

    async def submit(
        self, client: str, kind: str, params: dict
    ) -> tuple[int, Any, dict[str, str]]:
        return await self.request(
            "POST", "/jobs", {"client": client, "kind": kind, "params": params}
        )

    async def jobs(self) -> tuple[int, Any, dict[str, str]]:
        return await self.request("GET", "/jobs")

    async def job(self, job_id: str) -> tuple[int, Any, dict[str, str]]:
        return await self.request("GET", f"/jobs/{job_id}")

    async def cancel(self, job_id: str) -> tuple[int, Any, dict[str, str]]:
        return await self.request("POST", f"/jobs/{job_id}/cancel")

    async def wait(
        self, job_id: str, timeout_s: float = 60.0, poll_s: float = 0.05
    ) -> dict:
        """Poll until the job reaches a terminal state; returns its view.

        Raises :class:`GatewayError` when the deadline passes first --
        the caller decides whether a stuck job is a test failure or a
        cancellation target.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while True:
            status, view, _ = await self.job(job_id)
            if status == 200 and view.get("state") in ("done", "failed", "cancelled"):
                return view
            if loop.time() >= deadline:
                raise GatewayError(
                    f"job {job_id} still {view.get('state') if view else status} "
                    f"after {timeout_s}s"
                )
            await asyncio.sleep(poll_s)
