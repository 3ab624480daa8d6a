"""Synthetic mobile workload generator.

Drives both simulation fidelities from one stochastic model: per-day
volumes are sampled per app (log-normal day-to-day jitter around the
profile means), media files are write-once/read-many, app data churns in
place, and a steady trickle of deletions keeps utilization roughly
stationary once the device fills to its working set.

Calibration target (§2.3.2 / Zhang et al.): a *typical* mix writes
~2-3 GB/day; against a 64 GB TLC device over a 2-year warranty this
consumes a low-single-digit percentage of rated endurance.

The epoch engine's input is :meth:`MobileWorkload.daily_volume_arrays`,
one call per simulated device: one lognormal draw for the whole
horizon, every app's terms formed in one preallocated ``(apps, 4,
days)`` block, and the apps summed in mix order with in-place adds --
bit for bit the per-(day, app) scalar loop kept as the test oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.host.files import FileKind, MEDIA_KINDS

from .apps import APP_PROFILES, USER_MIXES
from .traces import OpKind, TraceOp

__all__ = ["WorkloadConfig", "MobileWorkload"]


@functools.cache
def _mix_table(mix: str) -> tuple[np.ndarray, ...]:
    """Per-app coefficients of ``mix`` as five read-only ``(apps, 1)``
    columns, apps in mix order: write MB/day, overwrite share, media
    share, non-media share and read MB/day, each volume scaled by the
    app's activity factor."""
    rows = []
    for app_name, factor in USER_MIXES[mix].items():
        profile = APP_PROFILES[app_name]
        rows.append((
            profile.write_mb_per_day * factor,
            profile.overwrite_fraction,
            profile.media_fraction,
            1.0 - profile.media_fraction,
            profile.read_mb_per_day * factor,
        ))
    table = np.array(rows).T[:, :, None]
    table.flags.writeable = False
    return tuple(table)


@dataclass(frozen=True, slots=True)
class WorkloadConfig:
    """Workload generation parameters.

    Attributes
    ----------
    mix:
        Key into :data:`~repro.workloads.apps.USER_MIXES`.
    days:
        Simulated span.
    daily_jitter_sigma:
        Log-normal sigma for day-to-day volume variation.
    delete_fraction:
        Fraction of the day's new bytes eventually matched by deletions
        (steady-state churn).
    cloud_backup_probability:
        Probability a new media file has a cloud copy (§4.3 notes many
        users back up media).
    seed:
        RNG seed.
    """

    mix: str = "typical"
    days: int = 730
    daily_jitter_sigma: float = 0.35
    delete_fraction: float = 0.5
    cloud_backup_probability: float = 0.6
    seed: int = 0


class MobileWorkload:
    """Generates daily volume arrays and (optionally) op-level traces."""

    def __init__(self, config: WorkloadConfig | None = None) -> None:
        self.config = config or WorkloadConfig()
        if self.config.mix not in USER_MIXES:
            raise ValueError(f"unknown user mix {self.config.mix!r}")
        self._rng = np.random.default_rng(self.config.seed)

    # -- epoch-level ---------------------------------------------------------

    def daily_volume_arrays(self) -> dict[str, np.ndarray]:
        """Per-day aggregate volumes as one array per field.

        Returns ``{"day", "new_media_gb", "new_other_gb", "overwrite_gb",
        "read_gb", "delete_gb"}``, each of shape ``(days,)``.  Every
        (day, app) pair draws a write and then a read jitter, in day
        order and the mix's app order -- the C-order ravel of a
        ``(days, apps, 2)`` block, which ``Generator.lognormal(size=...)``
        consumes exactly like as many scalar draws.  Each day's per-app
        terms, scaled by :func:`_mix_table`'s coefficients, are summed in
        app order, so the values are bit-identical to the per-(day, app)
        scalar loop kept as the test oracle in
        ``tests/workloads/test_workloads.py``.  The five volume arrays
        are the rows of one ``(5, days)`` block.

        Consumes the workload's RNG; use a fresh workload instance per
        call, as the batched lifetime path does (one instance per
        simulated device).
        """
        days = self.config.days
        write, overwrite_share, media_share, other_share, read = _mix_table(
            self.config.mix
        )
        apps = len(write)
        # (2, apps, days): the transpose of the draw order, copied so
        # every operand below is contiguous
        jitter = np.ascontiguousarray(self._rng.lognormal(
            0.0, self.config.daily_jitter_sigma, size=(days, apps, 2)
        ).T)
        # one block of every app's (media, other, overwrite, read) MB
        terms = np.empty((apps, 4, days))
        vol_mb = np.multiply(write, jitter[0], out=jitter[0])
        overwrite = np.multiply(vol_mb, overwrite_share, out=terms[:, 2])
        fresh = np.subtract(vol_mb, overwrite, out=vol_mb)
        np.multiply(fresh, media_share, out=terms[:, 0])
        np.multiply(fresh, other_share, out=terms[:, 1])
        np.multiply(read, jitter[1], out=terms[:, 3])
        # add the app rows one at a time in mix order, as the oracle
        # loop does (add.reduce is free to pair them differently)
        total = terms[0]
        for app_terms in terms[1:]:
            total += app_terms
        # rows: media, other, overwrite, read, delete -- in MB, then GB
        out = np.empty((5, days))
        out[:4] = total
        np.add(total[0], total[1], out=out[4])
        out[4] *= self.config.delete_fraction
        out /= 1024.0
        return {
            "day": np.arange(days, dtype=np.int64),
            "new_media_gb": out[0],
            "new_other_gb": out[1],
            "overwrite_gb": out[2],
            "read_gb": out[3],
            "delete_gb": out[4],
        }

    # -- op-level ----------------------------------------------------------------

    def ops(
        self,
        scale_bytes: float = 1.0,
        files_per_day: int = 6,
        delete_rate: float = 0.002,
    ) -> list[TraceOp]:
        """Expand the workload into replayable operations.

        Parameters
        ----------
        scale_bytes:
            Multiplier on file sizes (use << 1 to drive the bit-exact
            small-geometry device).
        files_per_day:
            New files created per day (sizes apportioned from the day's
            volumes).
        delete_rate:
            Fraction of live files deleted per day (oldest first); raise
            it when replaying against small devices so the working set
            stays stationary.
        """
        ops: list[TraceOp] = []
        live_paths: list[tuple[str, FileKind, int]] = []
        counter = 0
        volumes = self.daily_volume_arrays()
        columns = [
            volumes[name].tolist()
            for name in ("day", "new_media_gb", "new_other_gb", "overwrite_gb")
        ]
        for day, new_media_gb, new_other_gb, overwrite_gb in zip(*columns):
            new_gb = new_media_gb + new_other_gb
            media_share = new_media_gb / new_gb if new_gb else 0.0
            for _ in range(files_per_day):
                counter += 1
                is_media = self._rng.random() < media_share
                kind = self._pick_kind(is_media)
                size = max(
                    256,
                    int(new_gb * 1e9 / files_per_day * scale_bytes),
                )
                path = f"/user/{kind.value}/{counter:07d}"
                ops.append(
                    TraceOp(
                        day=day,
                        kind=OpKind.CREATE,
                        path=path,
                        file_kind=kind,
                        size_bytes=size,
                        cloud_backed=is_media
                        and self._rng.random() < self.config.cloud_backup_probability,
                    )
                )
                live_paths.append((path, kind, size))
            # overwrites hit app metadata in place
            if overwrite_gb > 0:
                ops.append(
                    TraceOp(
                        day=day,
                        kind=OpKind.OVERWRITE,
                        path="/user/app_metadata/churn",
                        file_kind=FileKind.APP_METADATA,
                        size_bytes=max(256, int(overwrite_gb * 1e9 * scale_bytes)),
                    )
                )
            # reads spread over live files
            if live_paths:
                idx = int(self._rng.integers(0, len(live_paths)))
                path, kind, size = live_paths[idx]
                ops.append(
                    TraceOp(day=day, kind=OpKind.READ, path=path, file_kind=kind, size_bytes=size)
                )
            # deletions: drop oldest files to approximate churn
            ndelete = int(len(live_paths) * delete_rate)
            for _ in range(ndelete):
                path, kind, size = live_paths.pop(0)
                ops.append(
                    TraceOp(day=day, kind=OpKind.DELETE, path=path, file_kind=kind, size_bytes=size)
                )
        return ops

    def _pick_kind(self, is_media: bool) -> FileKind:
        if is_media:
            kinds = [FileKind.PHOTO, FileKind.VIDEO, FileKind.AUDIO, FileKind.MESSAGE_MEDIA]
            weights = np.array([0.45, 0.2, 0.1, 0.25])
        else:
            kinds = [FileKind.DOCUMENT, FileKind.DOWNLOAD, FileKind.APP_METADATA]
            weights = np.array([0.3, 0.3, 0.4])
        return kinds[self._rng.choice(len(kinds), p=weights / weights.sum())]
