"""Coordinator backoff under load: retries must not stall the sweep.

A retrying point sits in exponential backoff between attempts.  The
coordinator's scheduling loop must treat that waiting as *idle
capacity*: other ready points keep getting submitted and their
completions keep streaming while the flaky point waits out its delays.
The regression these tests guard against is a coordinator that blocks
on the backoff timer (sleeping the loop instead of requeueing), which
would serialize the whole sweep behind its slowest retrier.  The same
loop runs in-process at ``jobs=1``, so the stall and cancel tests run
at both ``jobs=1`` and ``jobs=2``.

Retry delays are *full-jitter*: each attempt waits a deterministic
``U(0, base * 2**(attempt-1))`` draw derived from the point's seed, so
the timing bounds below reason about the jitter window rather than the
nominal exponential.  Timings use generous bounds sized for a loaded
single-core CI box; the suite-wide wall-clock clamp turns a genuine
stall into a fast failure rather than a hang.
"""

from __future__ import annotations

import time

import pytest

from repro.runner import Sweep, SweepCancelled, full_jitter_backoff, run_sweep
from repro.runner.faultfns import flaky_point, sleepy_point
from repro.runner.sweep import derive_seeds


@pytest.mark.parametrize("jobs", [1, 2])
def test_backoff_does_not_stall_other_completions(tmp_path, jobs):
    """Healthy points all complete while the flaky point is still
    backing off, and their completions stream through ``on_point``
    well before the flaky point's final success."""
    n_sleepy = 4
    backoff_s = 0.8  # nominal base; actual delays are jittered per seed
    grid = (
        # index 0: fails twice, succeeds on the third attempt
        {"index": 0, "fail_times": 2, "scratch": str(tmp_path)},
    ) + tuple(
        {"index": i, "fail_times": 0, "scratch": str(tmp_path)}
        for i in range(1, 1 + n_sleepy)
    )
    completed: list[tuple[int, float]] = []
    start = time.monotonic()

    def on_point(point):
        completed.append((point.index, time.monotonic() - start))

    result = run_sweep(
        Sweep(name="backoff-stream", fn=flaky_point, grid=grid, base_seed=3),
        jobs=jobs,
        retries=3,
        retry_backoff_s=backoff_s,
        keep_going=True,
        on_point=on_point,
    )

    assert result.ok
    by_index = dict(completed)
    assert set(by_index) == {0, 1, 2, 3, 4}
    flaky_done = by_index[0]
    healthy_done = max(t for i, t in completed if i != 0)
    # the flaky point waited out two jittered backoffs (deterministic
    # given its seed); the healthy points are instant.  If the
    # coordinator kept scheduling during the backoff, every healthy
    # completion lands well before the flaky one.
    flaky_seed = derive_seeds(3, len(grid))[0]
    total_delay = sum(
        full_jitter_backoff(backoff_s, attempt, flaky_seed)
        for attempt in (1, 2)
    )
    assert total_delay > 0.5  # seed chosen so the window is observable
    assert flaky_done >= total_delay  # sanity: backoff really happened
    assert healthy_done < flaky_done, (
        f"healthy points finished at {healthy_done:.2f}s, after the "
        f"flaky point's {flaky_done:.2f}s -- the backoff stalled them"
    )
    # completion order: all healthy indices streamed before the retrier
    assert [i for i, _ in completed][-1] == 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_cancel_lands_during_a_retry_backoff(tmp_path, jobs):
    """A cancel requested while a point waits out its retry backoff ends
    the sweep within about one scheduling tick, not after the delay, and
    the retry never runs."""
    backoff_s, base_seed = 2.0, 0
    delay = full_jitter_backoff(backoff_s, 1, derive_seeds(base_seed, 1)[0])
    assert delay >= 1.0  # seed chosen so the backoff dwarfs a tick
    first_attempt = tmp_path / "attempts-0-0"
    polls: list[float] = []

    def should_stop() -> bool:
        # fire 0.2s after the first attempt failed: by then the point
        # is waiting out its backoff, whatever process ran it
        if not first_attempt.exists():
            return False
        polls.append(time.monotonic())
        return polls[-1] - polls[0] >= 0.2

    grid = ({"index": 0, "fail_times": 1, "scratch": str(tmp_path)},)
    with pytest.raises(SweepCancelled):
        run_sweep(
            Sweep(name="backoff-cancel", fn=flaky_point, grid=grid,
                  base_seed=base_seed),
            jobs=jobs,
            retries=1,
            retry_backoff_s=backoff_s,
            should_stop=should_stop,
        )
    landed = time.monotonic() - polls[0]
    assert landed < 0.5, (
        f"cancel landed {landed:.2f}s after the failure, inside a "
        f"{delay:.2f}s backoff -- the loop slept through it"
    )
    assert not (tmp_path / "attempts-0-1").exists()  # the retry never ran


def test_backoff_wall_time_not_serialized(tmp_path):
    """Two independent retriers back off concurrently, not in sequence.

    Each point fails once then succeeds, with a 0.5s first-retry delay.
    A coordinator that sleeps through backoffs one point at a time would
    need >= 1.0s of pure delay; concurrent backoff needs ~0.5s.  The
    bound of 3.0s total is generous for CI noise while still catching
    full serialization of larger grids (4 x 0.5s = 2.0s of delay plus
    attempt overhead would exceed it).
    """
    n_flaky = 4
    backoff_s = 0.5
    grid = tuple(
        {"index": i, "fail_times": 1, "scratch": str(tmp_path)}
        for i in range(n_flaky)
    )
    start = time.monotonic()
    result = run_sweep(
        Sweep(name="backoff-concurrent", fn=flaky_point, grid=grid, base_seed=5),
        jobs=n_flaky,
        retries=2,
        retry_backoff_s=backoff_s,
    )
    elapsed = time.monotonic() - start
    assert result.ok
    assert all(p.attempts == 2 for p in result.points)
    assert elapsed < 3.0, (
        f"4 concurrent 0.5s backoffs took {elapsed:.2f}s -- "
        "the coordinator is serializing retry delays"
    )


def test_sleepy_points_keep_streaming_past_a_retrier(tmp_path):
    """Completion streaming continues during a backoff window: slow but
    healthy points submitted *after* the flaky point's failure still
    start, run, and stream while the retrier waits."""
    sleep_s = 0.15
    grid = (
        {"index": 0, "fail_times": 2, "scratch": str(tmp_path)},
    ) + tuple(
        {"index": i, "sleep_s": sleep_s} for i in range(1, 7)
    )

    completed: list[int] = []
    result = run_sweep(
        Sweep(
            name="backoff-sleepy",
            fn=_flaky_or_sleepy,
            grid=grid,
            base_seed=11,
        ),
        jobs=2,
        retries=3,
        retry_backoff_s=1.2,
        on_point=lambda p: completed.append(p.index),
    )
    assert result.ok
    # every sleepy point (6 x 0.15s across 2 workers ~ 0.45s of work)
    # resolved before the flaky point cleared its two jittered backoffs
    # (~0.97s total for base_seed=11 -- deterministic, see
    # full_jitter_backoff)
    assert completed[-1] == 0
    assert set(completed[:-1]) == set(range(1, 7))


class TestFullJitter:
    """The deterministic full-jitter schedule itself (no pools)."""

    def test_schedules_differ_across_points(self):
        """Points of one sweep fan their retries out over the window
        instead of stampeding in synchronized waves: the first-retry
        delays across a grid are (essentially) all distinct."""
        seeds = derive_seeds(base_seed=42, n=32)
        delays = [full_jitter_backoff(1.0, 1, s) for s in seeds]
        assert len(set(delays)) == len(delays)
        # and they genuinely spread over the window, not cluster
        assert min(delays) < 0.25 and max(delays) > 0.75

    def test_schedule_reproduces_across_runs(self):
        """Same (seed, attempt) -> same delay, run after run: retry
        timing is part of the experiment's deterministic surface."""
        seeds = derive_seeds(base_seed=7, n=8)
        first = [
            [full_jitter_backoff(0.5, a, s) for a in (1, 2, 3)] for s in seeds
        ]
        second = [
            [full_jitter_backoff(0.5, a, s) for a in (1, 2, 3)] for s in seeds
        ]
        assert first == second

    def test_jitter_respects_exponential_ceiling_and_cap(self):
        seed = derive_seeds(base_seed=9, n=1)[0]
        for attempt in range(1, 12):
            delay = full_jitter_backoff(0.5, attempt, seed, cap_s=30.0)
            assert 0.0 <= delay <= min(0.5 * 2 ** (attempt - 1), 30.0)

    def test_attempt_is_one_based(self):
        import pytest

        with pytest.raises(ValueError):
            full_jitter_backoff(1.0, 0, 123)


def _flaky_or_sleepy(params: dict, seed: int) -> dict:
    """Module-level composite so worker processes can unpickle it."""
    if "sleep_s" in params:
        return sleepy_point(params, seed)
    return flaky_point(params, seed)
