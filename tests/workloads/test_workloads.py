"""Workload profiles, generator calibration, trace round-trips."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.workloads.apps import APP_PROFILES, USER_MIXES, daily_write_gb
from repro.workloads.mobile import (
    DAILY_JITTER_SIGMA,
    DELETE_FRACTION,
    MobileWorkload,
    WorkloadConfig,
)
from repro.workloads.traces import OpKind, TraceOp, load_trace, save_trace
from repro.host.files import FileKind


class TestProfiles:
    def test_all_mix_apps_exist(self):
        for mix in USER_MIXES.values():
            for app in mix:
                assert app in APP_PROFILES

    def test_produces_weights_positive(self):
        for profile in APP_PROFILES.values():
            assert all(w > 0 for w in profile.produces.values())

    def test_typical_writes_a_few_gb_per_day(self):
        """Calibration to Zhang et al.: typical mobile use is ~2-3 GB/day."""
        assert 1.5 <= daily_write_gb("typical") <= 3.5

    def test_mix_ordering(self):
        assert daily_write_gb("light") < daily_write_gb("typical") < daily_write_gb("heavy")

    def test_adversarial_dominated_by_stress_game(self):
        assert daily_write_gb("adversarial") > 10 * daily_write_gb("typical")


VOLUME_FIELDS = ("new_media_gb", "new_other_gb", "overwrite_gb", "read_gb", "delete_gb")


def _total_write_gb(volumes: dict[str, np.ndarray]) -> np.ndarray:
    return volumes["new_media_gb"] + volumes["new_other_gb"] + volumes["overwrite_gb"]


class TestGenerator:
    def test_summary_count_matches_days(self):
        wl = MobileWorkload(WorkloadConfig(days=100, seed=1))
        volumes = wl.daily_volume_arrays()
        assert volumes.keys() == {"day", *VOLUME_FIELDS}
        assert all(array.shape == (100,) for array in volumes.values())
        assert volumes["day"].tolist() == list(range(100))

    @pytest.mark.parametrize("days", [0, -3])
    def test_workload_without_days_is_refused(self, days):
        """A zero- or negative-day workload is refused where it is made,
        not by numpy days later inside a volume block."""
        with pytest.raises(ValueError, match="days must be positive"):
            WorkloadConfig(days=days)

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError):
            MobileWorkload(WorkloadConfig(mix="bogus"))

    def test_volumes_positive_and_media_heavy(self):
        wl = MobileWorkload(WorkloadConfig(mix="typical", days=200, seed=2))
        volumes = wl.daily_volume_arrays()
        total_media = volumes["new_media_gb"].sum()
        total_other = volumes["new_other_gb"].sum()
        assert total_media > total_other  # media dominates new bytes
        assert (_total_write_gb(volumes) > 0).all()

    def test_deterministic_under_seed(self):
        a = MobileWorkload(WorkloadConfig(days=50, seed=3)).daily_volume_arrays()
        b = MobileWorkload(WorkloadConfig(days=50, seed=3)).daily_volume_arrays()
        assert a.keys() == b.keys()
        for name in a:
            assert a[name].tobytes() == b[name].tobytes(), name

    def test_mean_volume_tracks_mix_nominal(self):
        wl = MobileWorkload(WorkloadConfig(mix="typical", days=730, seed=4))
        mean = _total_write_gb(wl.daily_volume_arrays()).mean()
        nominal = daily_write_gb("typical")
        # log-normal jitter biases the mean up slightly (e^{sigma^2/2})
        assert nominal * 0.8 <= mean <= nominal * 1.5


def _scalar_summaries(
    config: WorkloadConfig,
) -> tuple[dict[str, list], np.random.Generator]:
    """The per-(day, app) scalar loop the array generator replaced, kept
    as its oracle: each day's summary as one entry per field, and the
    rng after their draws."""
    rng = np.random.default_rng(config.seed)
    out: dict[str, list] = {"day": [], **{name: [] for name in VOLUME_FIELDS}}
    for day in range(config.days):
        media = other = overwrite = read = 0.0
        for app_name, factor in USER_MIXES[config.mix].items():
            profile = APP_PROFILES[app_name]
            jitter = rng.lognormal(0.0, DAILY_JITTER_SIGMA)
            vol_mb = profile.write_mb_per_day * factor * jitter
            ow = vol_mb * profile.overwrite_fraction
            fresh = vol_mb - ow
            media += fresh * profile.media_fraction
            other += fresh * (1.0 - profile.media_fraction)
            overwrite += ow
            jitter = rng.lognormal(0.0, DAILY_JITTER_SIGMA)
            read += profile.read_mb_per_day * factor * jitter
        delete = (media + other) * DELETE_FRACTION
        row = (day, media / 1024.0, other / 1024.0, overwrite / 1024.0,
               read / 1024.0, delete / 1024.0)
        for name, value in zip(out, row):
            out[name].append(value)
    return out, rng


class TestVolumeArrays:
    """The array generator must not perturb a single bit of the scalar loop."""

    @pytest.mark.parametrize("seed", [0, 42, 606])
    @pytest.mark.parametrize("days", [1, 7, 90, 730])
    @pytest.mark.parametrize("mix", ["light", "typical", "heavy", "adversarial"])
    def test_bit_identical_to_daily_summaries(self, mix, days, seed):
        config = WorkloadConfig(mix=mix, days=days, seed=seed)
        summaries, _ = _scalar_summaries(config)
        arrays = MobileWorkload(config).daily_volume_arrays()
        assert arrays["day"].tolist() == summaries["day"]
        for field in VOLUME_FIELDS:
            assert arrays[field].tolist() == summaries[field], field

    def test_consumes_same_rng_stream(self):
        """Drawing arrays leaves the generator's rng exactly where the
        scalar loop leaves it, so ``ops()`` draws on reproducibly."""
        for mix in USER_MIXES:
            config = WorkloadConfig(mix=mix, days=50, seed=9)
            _, rng = _scalar_summaries(config)
            workload = MobileWorkload(config)
            workload.daily_volume_arrays()
            assert workload._rng.bit_generator.state == rng.bit_generator.state, mix


class TestOps:
    def test_ops_cover_all_kinds_of_operations(self):
        wl = MobileWorkload(WorkloadConfig(days=300, seed=5))
        ops = wl.ops(scale_bytes=1e-6)
        kinds = {op.kind for op in ops}
        assert OpKind.CREATE in kinds
        assert OpKind.OVERWRITE in kinds
        assert OpKind.READ in kinds
        assert OpKind.DELETE in kinds

    @pytest.mark.parametrize(
        ("mix", "days", "seed", "scale_bytes", "count", "digest"),
        [
            ("typical", 300, 5, 1e-6, 2734,
             "1d2c708a5deaabb4e2e14ea8ee6a779aeb28db414ba05c8b2156eea7904576a0"),
            ("heavy", 60, 606, 1.0, 480,
             "1cfe20f83c86081cd4f370713223805634a083febfdb72a93fdc85f1e9e2fb9d"),
        ],
    )
    def test_op_stream_is_pinned(self, mix, days, seed, scale_bytes, count, digest):
        """``ops()`` walks the volume arrays after drawing them: its RNG
        order and every op are pinned by a digest of the JSON trace."""
        ops = MobileWorkload(WorkloadConfig(mix=mix, days=days, seed=seed)).ops(
            scale_bytes=scale_bytes
        )
        assert len(ops) == count
        payload = json.dumps([op.to_dict() for op in ops]).encode()
        assert hashlib.sha256(payload).hexdigest() == digest

    def test_deletes_reference_created_paths(self):
        wl = MobileWorkload(WorkloadConfig(days=300, seed=5))
        ops = wl.ops(scale_bytes=1e-6)
        created = {op.path for op in ops if op.kind is OpKind.CREATE}
        for op in ops:
            if op.kind is OpKind.DELETE:
                assert op.path in created


class TestTraceSerialization:
    def test_roundtrip(self, tmp_path):
        ops = [
            TraceOp(day=0, kind=OpKind.CREATE, path="/a", file_kind=FileKind.PHOTO,
                    size_bytes=100, cloud_backed=True),
            TraceOp(day=1, kind=OpKind.DELETE, path="/a", file_kind=FileKind.PHOTO,
                    size_bytes=100),
        ]
        path = tmp_path / "trace.json"
        save_trace(ops, path)
        assert load_trace(path) == ops
