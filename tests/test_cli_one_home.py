"""One home per setting: the CLI sends only the flags the user set.

``repro serve`` fills a ``GatewayConfig`` and ``repro lifetime`` and
``repro population`` call ``run_sweep`` and ``run_fleet`` with the
flags given and nothing else, so every unset value is the library's
own default.  Each command is stopped where it hands over its work:
``serve`` at the gateway, the runners at ``run_sweep``/``run_fleet``,
``submit`` and ``jobs`` at the gateway client, so nothing runs and no
socket opens.  The values the CLI keeps a copy of (so that importing it
loads no numpy) equal their homes.
"""

from __future__ import annotations

import inspect
import subprocess
import sys
from dataclasses import replace

import pytest

from repro import cli
from repro.cli import main
from repro.serve import ClientQuota, GatewayConfig, HealthThresholds


class _HandedOver(Exception):
    """Stops a command once it has handed over its work."""


def _serve_config(monkeypatch, tmp_path, *flags: str) -> GatewayConfig:
    """The config ``repro serve`` builds its gateway from."""
    configs = []

    class Gateway:
        def __init__(self, config):
            configs.append(config)
            raise _HandedOver

    monkeypatch.setattr("repro.serve.Gateway", Gateway)
    with pytest.raises(_HandedOver):
        main(["serve", "--state-dir", str(tmp_path), *flags])
    return configs[0]


def _with(config: GatewayConfig, path: str, value) -> GatewayConfig:
    """``config`` with the (possibly nested) field ``path`` set."""
    outer, _, field = path.rpartition(".")
    if not outer:
        return replace(config, **{field: value})
    return replace(config, **{outer: replace(getattr(config, outer), **{field: value})})


def test_serve_defaults_are_the_gateway_defaults(monkeypatch, tmp_path):
    """Only the listen port is the CLI's own; every other field, the
    client quota's and the health thresholds' too, is the library's."""
    config = _serve_config(monkeypatch, tmp_path)
    assert config.port == cli._GATEWAY_ADDRESS[1]
    library = GatewayConfig(state_dir=str(tmp_path))
    assert config == replace(library, port=config.port)
    assert config.quota == ClientQuota()
    assert config.thresholds == HealthThresholds()


#: each serve flag, a value away from the default, and the field it sets
SERVE_FLAGS = [
    (["--host", "0.0.0.0"], "host", "0.0.0.0"),
    (["--port", "0"], "port", 0),
    (["--max-running", "3"], "max_running", 3),
    (["--max-queue", "5"], "max_queue", 5),
    (["--job-workers", "1"], "job_workers", 1),
    (["--retries", "0"], "retries", 0),
    (["--timeout", "9.5"], "timeout_s", 9.5),
    (["--durability", "fsync"], "durability", "fsync"),
    (["--rate", "3"], "rate_per_s", 3.0),
    (["--burst", "4"], "burst", 4.0),
    (["--max-concurrent", "7"], "quota.max_concurrent", 7),
    (["--max-units-per-window", "99"], "quota.max_units_per_window", 99),
    (["--window", "30"], "quota.window_s", 30.0),
    (["--max-error-rate", "0.25"], "thresholds.max_error_rate", 0.25),
]


@pytest.mark.parametrize(
    ("flags", "path", "value"), SERVE_FLAGS, ids=[f[0][0] for f in SERVE_FLAGS]
)
def test_each_serve_flag_moves_only_its_field(monkeypatch, tmp_path, flags, path, value):
    base = _serve_config(monkeypatch, tmp_path)
    assert _with(base, path, value) != base
    assert _serve_config(monkeypatch, tmp_path, *flags) == _with(base, path, value)


def _runner_keywords(monkeypatch, command: str, flags: list[str]) -> dict:
    """The keywords ``command`` passes to ``run_sweep``/``run_fleet``."""
    calls = []

    def handed_over(*args, **kwargs):
        calls.append(kwargs)
        raise _HandedOver

    target = "repro.runner.run_sweep" if command == "lifetime" else "repro.fleet.run_fleet"
    monkeypatch.setattr(target, handed_over)
    with pytest.raises(_HandedOver):
        main([command, *flags])
    return calls[0]


#: each runner flag and the keyword it sends
RUNNER_FLAGS = [
    (["--jobs", "2"], {"jobs": 2}),
    (["--cache-dir", "cache"], {"cache_dir": "cache"}),
    (["--retries", "3"], {"retries": 3}),
    (["--timeout", "60"], {"timeout_s": 60.0}),
    (["--keep-going"], {"keep_going": True}),
    (["--durability", "fsync"], {"durability": "fsync"}),
]


@pytest.mark.parametrize("command", ["lifetime", "population"])
def test_unset_runner_flags_send_no_runner_keyword(monkeypatch, command):
    kwargs = _runner_keywords(monkeypatch, command, [])
    assert not set(kwargs) & set(cli._RUNNER_KEYS)


@pytest.mark.parametrize("command", ["lifetime", "population"])
@pytest.mark.parametrize(
    ("flags", "expected"), RUNNER_FLAGS, ids=[f[0][0] for f in RUNNER_FLAGS]
)
def test_each_runner_flag_sends_only_its_keyword(monkeypatch, command, flags, expected):
    kwargs = _runner_keywords(monkeypatch, command, flags)
    assert {k: v for k, v in kwargs.items() if k in cli._RUNNER_KEYS} == expected


def test_runner_keys_are_runner_parameters():
    from repro.fleet import run_fleet
    from repro.runner import run_sweep

    for runner in (run_sweep, run_fleet):
        assert set(cli._RUNNER_KEYS) <= set(inspect.signature(runner).parameters)


def _client_calls(monkeypatch, argv: list[str]) -> list[tuple]:
    """The ``GatewayClient`` constructions a ``submit`` or ``jobs`` run makes."""
    calls = []

    class Client:
        def __init__(self, *args, **kwargs):
            calls.append((args, kwargs))

        async def submit(self, client, kind, params):
            return 202, {"job_id": "j0", "state": "queued"}, {}

        async def jobs(self):
            return 200, {"jobs": []}, {}

    monkeypatch.setattr("repro.serve.GatewayClient", Client)
    assert main(argv) == 0
    return calls


def test_gateway_clients_take_the_client_timeout_unless_set(monkeypatch, capsys):
    """``submit`` and ``jobs`` reach the address ``serve`` listens on,
    and pass a transport timeout only when ``--poll-timeout`` is set."""
    submit = ["submit", "population", "--devices", "2", "--years", "0.1"]
    assert _client_calls(monkeypatch, submit) == [(cli._GATEWAY_ADDRESS, {})]
    assert _client_calls(monkeypatch, [*submit, "--poll-timeout", "5"]) == [
        (cli._GATEWAY_ADDRESS, {"timeout_s": 5.0})
    ]
    assert _client_calls(monkeypatch, ["jobs"]) == [(cli._GATEWAY_ADDRESS, {})]


def test_unset_growth_is_the_projection_default(monkeypatch, capsys):
    from repro.carbon.projection import ProjectionConfig

    configs = []

    def project(config):
        configs.append(config)
        return []

    monkeypatch.setattr("repro.carbon.projection.project", project)
    main(["project"])
    main(["project", "--growth", "0.2"])
    assert configs == [ProjectionConfig(), ProjectionConfig(bit_growth_rate=0.2)]


def test_cli_copies_equal_their_homes():
    from repro.chaos import DURABILITY_LEVELS
    from repro.store.format import CODECS
    from repro.workloads.apps import USER_MIXES

    assert cli._MIXES == tuple(USER_MIXES)
    assert cli._DURABILITY_LEVELS == DURABILITY_LEVELS
    assert sorted(cli._CODECS) == sorted(CODECS)
    assert cli._GATEWAY_ADDRESS[0] == GatewayConfig(state_dir=".").host


def test_importing_the_cli_loads_no_numpy():
    """Why the CLI keeps copies: the libraries they come from load numpy."""
    probe = "import sys, repro.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"
