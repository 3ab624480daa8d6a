"""Sweep runner: seed derivation, determinism, caching, ordering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runner import Sweep, derive_seeds, run_sweep
from repro.runner.points import lifetime_point

#: small but non-trivial lifetime grid (120 days keeps it fast)
LIFETIME_GRID = tuple(
    {"build": name, "capacity_gb": 64.0, "mix": "typical", "days": 120}
    for name in ("tlc_baseline", "sos", "qlc_baseline", "plc_naive")
)


def _lifetime_sweep() -> Sweep:
    return Sweep(name="test-lifetime", fn=lifetime_point, grid=LIFETIME_GRID,
                 base_seed=7)


class TestDeriveSeeds:
    def test_deterministic(self):
        assert derive_seeds(7, 5) == derive_seeds(7, 5)

    def test_prefix_stable(self):
        # a point's seed depends only on (base_seed, index) -- growing the
        # grid must not move existing points
        assert derive_seeds(7, 8)[:3] == derive_seeds(7, 3)

    def test_base_seed_matters(self):
        assert derive_seeds(7, 4) != derive_seeds(8, 4)

    def test_distinct_within_sweep(self):
        seeds = derive_seeds(0, 64)
        assert len(set(seeds)) == len(seeds)


class TestDeterminism:
    def test_parallel_matches_serial_bit_identical(self):
        serial = run_sweep(_lifetime_sweep(), jobs=1)
        parallel = run_sweep(_lifetime_sweep(), jobs=4)
        assert serial.jobs == 1 and parallel.jobs == 4
        for a, b in zip(serial.points, parallel.points):
            assert a.params == b.params
            assert a.seed == b.seed
            assert a.value == b.value  # bit-identical end state, not approx

    def test_results_in_grid_order(self):
        outcome = run_sweep(_lifetime_sweep(), jobs=4)
        assert [p.params["build"] for p in outcome.points] == [
            g["build"] for g in LIFETIME_GRID
        ]
        assert [p.index for p in outcome.points] == list(range(len(LIFETIME_GRID)))

    def test_derived_seeds_feed_workloads(self):
        # no workload_seed in params: each point must get its own derived
        # stream, the same one serial or parallel
        sweep = Sweep(name="pop", fn=lifetime_point, base_seed=3, grid=tuple(
            {"build": "tlc_baseline", "mix": "typical", "capacity_gb": 64.0,
             "days": 90} for _ in range(3)
        ))
        wear = [r.final.sys_wear_fraction for r in run_sweep(sweep, jobs=2).values()]
        assert wear == [
            r.final.sys_wear_fraction for r in run_sweep(sweep, jobs=1).values()
        ]
        # identical params, distinct derived seeds: distinct workloads
        assert len(set(wear)) == 3


class TestCaching:
    def test_second_run_is_fully_cached(self, tmp_path):
        first = run_sweep(_lifetime_sweep(), jobs=1, cache_dir=tmp_path)
        second = run_sweep(_lifetime_sweep(), jobs=1, cache_dir=tmp_path)
        assert first.cached_count == 0
        assert second.cached_count == len(LIFETIME_GRID)
        assert second.computed_count == 0
        for a, b in zip(first.points, second.points):
            assert a.value == b.value

    def test_param_change_misses(self, tmp_path):
        run_sweep(_lifetime_sweep(), jobs=1, cache_dir=tmp_path)
        grown = Sweep(
            name="test-lifetime", fn=lifetime_point, base_seed=7,
            grid=LIFETIME_GRID + (
                {"build": "tlc_baseline", "capacity_gb": 128.0,
                 "mix": "typical", "days": 120},
            ),
        )
        rerun = run_sweep(grown, jobs=1, cache_dir=tmp_path)
        # prefix-stable seeds: the original points all hit, only the new
        # point computes
        assert rerun.cached_count == len(LIFETIME_GRID)
        assert rerun.computed_count == 1

    def test_resume_after_partial_sweep_is_bit_identical(self, tmp_path):
        full = run_sweep(_lifetime_sweep(), jobs=1, cache_dir=tmp_path)
        # simulate a sweep interrupted after 3 of 4 points: drop one
        # cached entry, as if the crash happened before it was stored
        victim = 2
        key = _lifetime_sweep().point_key(
            victim, derive_seeds(7, len(LIFETIME_GRID))[victim]
        )
        (tmp_path / f"{key}.pkl").unlink()
        resumed = run_sweep(_lifetime_sweep(), jobs=2, cache_dir=tmp_path)
        assert resumed.cached_count == len(LIFETIME_GRID) - 1
        assert resumed.computed_count == 1
        for a, b in zip(full.points, resumed.points):
            assert a.value == b.value  # bit-identical resume

    def test_unkeyable_grid_rejected_even_without_cache(self):
        sweep = Sweep(
            name="bad", fn=lifetime_point, base_seed=0,
            grid=({"build": "tlc_baseline", "obj": object(),
                   "capacity_gb": 64.0, "mix": "typical", "days": 30},),
        )
        with pytest.raises(TypeError, match="not cache-keyable"):
            run_sweep(sweep, jobs=1)


class TestValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            Sweep(name="empty", fn=lifetime_point, grid=())

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(_lifetime_sweep(), jobs=0)


class TestStreamingReduction:
    """on_point / keep_values: the hooks the fleet reducer stands on."""

    def _grid(self, tmp_path, n=5):
        return tuple({"index": i, "sleep_s": 0.0} for i in range(n))

    def test_hook_sees_every_point(self, tmp_path):
        from repro.runner.faultfns import sleepy_point

        seen = []
        outcome = run_sweep(
            Sweep(name="hooked", fn=sleepy_point,
                  grid=self._grid(tmp_path), base_seed=1),
            on_point=lambda p: seen.append((p.index, p.value["index"])),
        )
        assert outcome.ok
        assert sorted(seen) == [(i, i) for i in range(5)]

    def test_hook_sees_every_point_parallel(self, tmp_path):
        from repro.runner.faultfns import sleepy_point

        seen = []
        outcome = run_sweep(
            Sweep(name="hooked-par", fn=sleepy_point,
                  grid=self._grid(tmp_path), base_seed=1),
            jobs=2,
            on_point=lambda p: seen.append(p.index),
        )
        assert outcome.ok
        assert sorted(seen) == list(range(5))

    def test_keep_values_false_drops_values_after_hook(self, tmp_path):
        from repro.runner.faultfns import sleepy_point

        values = []
        outcome = run_sweep(
            Sweep(name="dropped", fn=sleepy_point,
                  grid=self._grid(tmp_path), base_seed=1),
            on_point=lambda p: values.append(p.value),
            keep_values=False,
        )
        # the hook saw real values; the returned result carries none
        assert all(v is not None for v in values) and len(values) == 5
        assert all(p.value is None for p in outcome.points)
        # timings and params survive the drop
        assert all(p.wall_s >= 0.0 and p.params for p in outcome.points)

    def test_cache_hits_stream_first_in_grid_order(self, tmp_path):
        from repro.runner.faultfns import sleepy_point

        sweep = Sweep(name="hits-first", fn=sleepy_point,
                      grid=self._grid(tmp_path), base_seed=1)
        run_sweep(sweep, cache_dir=tmp_path)
        seen = []
        outcome = run_sweep(sweep, cache_dir=tmp_path,
                            on_point=lambda p: seen.append((p.index, p.cached)))
        assert outcome.cached_count == 5
        assert seen == [(i, True) for i in range(5)]

    def test_hook_exception_aborts(self, tmp_path):
        from repro.runner.faultfns import sleepy_point

        def hook(point):
            raise RuntimeError("reducer broke")

        with pytest.raises(RuntimeError, match="reducer broke"):
            run_sweep(
                Sweep(name="aborting", fn=sleepy_point,
                      grid=self._grid(tmp_path), base_seed=1),
                on_point=hook,
            )

    def test_values_still_cached_when_dropped(self, tmp_path):
        from repro.runner.faultfns import sleepy_point

        sweep = Sweep(name="cache-kept", fn=sleepy_point,
                      grid=self._grid(tmp_path), base_seed=1)
        run_sweep(sweep, cache_dir=tmp_path, keep_values=False)
        # a second run with values kept is served from cache, proving the
        # drop happened after persistence
        again = run_sweep(sweep, cache_dir=tmp_path)
        assert again.cached_count == 5
        assert [p.value["index"] for p in again.points] == list(range(5))
