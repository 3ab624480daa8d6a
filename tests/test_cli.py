"""CLI smoke tests: every subcommand runs and prints its table."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestCli:
    def test_density(self, capsys):
        assert main(["density"]) == 0
        out = capsys.readouterr().out
        assert "density gain vs TLC" in out
        assert "50.0%" in out

    def test_density_custom_split(self, capsys):
        main(["density", "--spare-fraction", "0.75"])
        assert "75% SPARE" in capsys.readouterr().out

    def test_project(self, capsys):
        main(["project"])
        out = capsys.readouterr().out
        assert "2021" in out and "2030" in out

    def test_market(self, capsys):
        main(["market"])
        out = capsys.readouterr().out
        assert "smartphone" in out
        assert "per decade" in out

    def test_credits(self, capsys):
        main(["credits"])
        out = capsys.readouterr().out
        assert "TLC" in out and "PLC" in out
        assert "39.5%" in out

    def test_lifetime_short(self, capsys):
        main(["lifetime", "--years", "1", "--mix", "light"])
        out = capsys.readouterr().out
        assert "sos" in out
        assert "tlc_baseline" in out

    def test_classify_small(self, capsys):
        main(["classify", "--files", "800"])
        out = capsys.readouterr().out
        assert "auto-delete accuracy" in out

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_lifetime_with_runner_flags(self, capsys):
        assert main([
            "lifetime", "--years", "1", "--mix", "light",
            "--jobs", "2", "--retries", "1", "--timeout", "600",
            "--keep-going",
        ]) == 0
        out = capsys.readouterr().out
        assert "sos" in out
        assert "failed" not in out

    def test_faults_selftest(self, capsys):
        """Tier-1 CI smoke: deterministic fault-plan replay end to end."""
        assert main(["faults", "selftest"]) == 0
        out = capsys.readouterr().out
        assert "plan determinism" in out
        assert "zero-rate transparency" in out
        assert "serial == parallel replay" in out
        assert "crash containment" in out
        assert "selftest passed" in out
        assert "FAIL" not in out

    def test_faults_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["faults"])


from repro.runner.points import lifetime_point as _real_lifetime_point  # noqa: E402


def _fail_sos_lifetime(params: dict, seed: int):
    """Module-level so fork workers can unpickle it by qualname."""
    if params["build"] == "sos":
        raise RuntimeError("injected: sos point fails")
    return _real_lifetime_point(params, seed)


def _fail_every_lifetime(params: dict, seed: int):
    raise RuntimeError("injected: every point fails")


class TestFtlFidelity:
    """``population --fidelity ftl``: the page-level fleet from the CLI."""

    def test_population_ftl_smoke(self, capsys):
        code = main([
            "population", "--fidelity", "ftl", "--devices", "6",
            "--years", "0.12", "--shard-size", "3", "--chunk", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "6 (2 shard(s) of <= 3, chunk 3)" in out
        assert "median wear" in out

    def test_plan_the_fleet_rejects_is_a_usage_error(self, capsys):
        """``FleetPlan``'s refusal reaches the user as argparse's own
        errors do: usage, the reason, exit code 2, no traceback."""
        with pytest.raises(SystemExit) as exit_info:
            main(["population", "--fidelity", "ftl", "--build", "sos",
                  "--devices", "2", "--years", "0.05"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage: repro population" in err
        assert "tlc_baseline" in err

    def test_negative_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["population", "--seed", "-1", "--devices", "2",
                  "--years", "0.05"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage: repro population" in err
        assert "seed must be non-negative" in err


def test_build_choices_are_the_builders():
    """``population`` and ``submit`` offer exactly the registered builds."""
    from repro.cli import _BUILDS
    from repro.sim.baselines import ALL_BUILDERS

    assert _BUILDS == tuple(ALL_BUILDERS)


class TestExitCodes:
    """The 0 ok / 1 partial / 2 failed ladder scripts and CI gate on."""

    def test_ladder_arithmetic(self):
        from repro.cli import _run_exit_code

        assert _run_exit_code(completed=5, failed=0) == 0
        assert _run_exit_code(completed=3, failed=2) == 1
        assert _run_exit_code(completed=0, failed=4) == 2

    def test_keep_going_with_failed_points_exits_1(self, monkeypatch, capsys):
        import repro.runner.points as points

        monkeypatch.setattr(points, "lifetime_point", _fail_sos_lifetime)
        code = main([
            "lifetime", "--years", "1", "--mix", "light",
            "--jobs", "2", "--retries", "0", "--keep-going",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "1 point(s) failed" in out
        assert "sos" in out  # the failed point is named, not swallowed
        assert "tlc_baseline" in out  # the surviving points still print

    def test_keep_going_with_every_point_failed_exits_2(
        self, monkeypatch, capsys
    ):
        import repro.runner.points as points

        monkeypatch.setattr(points, "lifetime_point", _fail_every_lifetime)
        code = main([
            "lifetime", "--years", "1", "--mix", "light",
            "--jobs", "2", "--retries", "0", "--keep-going",
        ])
        assert code == 2
        assert "point(s) failed" in capsys.readouterr().out

    def test_submit_without_gateway_exits_3(self, capsys):
        # nothing listens on port 9 (discard); transport failure is the
        # fourth rung -- distinct from a job that ran and failed
        code = main([
            "submit", "population", "--gateway", "127.0.0.1:9",
            "--devices", "10", "--years", "0.1",
        ])
        assert code == 3
        assert "error:" in capsys.readouterr().out


class TestObsCli:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        """One observed lifetime run shared by the obs CLI tests."""
        run = tmp_path_factory.mktemp("obsrun")
        assert main([
            "lifetime", "--years", "1", "--mix", "light", "--jobs", "2",
            "--trace", str(run / "trace.jsonl"),
            "--metrics-json", str(run / "metrics.json"),
        ]) == 0
        return run

    def test_lifetime_writes_both_artifacts(self, run_dir):
        import json

        payload = json.loads((run_dir / "metrics.json").read_text())
        assert payload["schema"] == "repro.obs.metrics/v1"
        assert payload["metrics"]["counters"]["engine.days"] == 4 * 365
        assert (run_dir / "trace.jsonl").exists()

    def test_obs_report_renders_run_directory(self, run_dir, capsys):
        assert main(["obs", "report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "phase spans" in out
        assert "engine.run" in out
        assert "counters" in out

    def test_obs_report_single_metrics_file(self, run_dir, capsys):
        assert main(["obs", "report", str(run_dir / "metrics.json")]) == 0
        assert "engine.run" in capsys.readouterr().out

    def test_obs_report_empty_directory_fails(self, tmp_path, capsys):
        assert main(["obs", "report", str(tmp_path)]) == 1

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["obs"])

    def test_lifetime_profile_writes_stats(self, tmp_path, capsys):
        import pstats

        stats_path = tmp_path / "profile.pstats"
        assert main([
            "lifetime", "--years", "1", "--mix", "light",
            "--profile", str(stats_path),
        ]) == 0
        assert "wrote cProfile stats" in capsys.readouterr().out
        assert pstats.Stats(str(stats_path)).total_calls > 0
