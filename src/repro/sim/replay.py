"""Op-level trace replay against the bit-exact SOS device.

Bridges :class:`~repro.workloads.mobile.MobileWorkload` (or any saved
trace) to a :class:`~repro.core.sos_device.SOSDevice`: each CREATE /
OVERWRITE / READ / DELETE is applied through the host file system, the
daemon runs on its configured cadence, and capacity pressure is absorbed
by the trim policy.  This is the "real" small-scale twin of the epoch
engine -- slower, but every page is an actual payload with actual ECC.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.sos_device import SOSDevice
from repro.flash.chip import DAYS_PER_YEAR
from repro.ftl.ftl import OutOfSpaceError
from repro.host.files import FileAttributes
from repro.host.filesystem import FsFullError
from repro.workloads.traces import OpKind, TraceOp

__all__ = ["ReplayStats", "replay"]


@dataclass(slots=True)
class ReplayStats:
    """Counters from one replay run."""

    creates: int = 0
    overwrites: int = 0
    reads: int = 0
    deletes: int = 0
    skipped_full: int = 0
    skipped_exists: int = 0
    daemon_runs: int = 0
    trim_events: int = 0


#: Outcomes of :func:`_create`.
_CREATED = "created"
_EXISTS = "exists"
_FULL = "full"


def _create(device, op, attrs, rng, page, stats) -> str:
    """Create a file; on partition exhaustion, run the daemon (demotion
    frees SYS, trim frees capacity) and retry once.

    Returns one of ``_CREATED``, ``_EXISTS`` (duplicate path), or
    ``_FULL`` (out of space even after the daemon ran) so the caller can
    count duplicate-path creates separately from ENOSPC skips.
    """
    for attempt in range(2):
        try:
            device.create_file(
                op.path, op.file_kind, op.size_bytes, attributes=attrs,
                content=lambda o: rng.bytes(min(page, 256)),
            )
            stats.creates += 1
            return _CREATED
        except FileExistsError:
            return _EXISTS
        except (FsFullError, OutOfSpaceError):
            if attempt == 1:
                return _FULL
            device.run_daemon()
            stats.daemon_runs += 1
    return _FULL


def _count_skip(stats: ReplayStats, outcome: str) -> None:
    """Attribute a failed create to the matching skip counter."""
    if outcome == _EXISTS:
        stats.skipped_exists += 1
    elif outcome == _FULL:
        stats.skipped_full += 1


def replay(
    device: SOSDevice,
    ops: list[TraceOp],
    daemon_every_days: int = 7,
    seed: int = 0,
) -> ReplayStats:
    """Replay a trace against a device, day by day.

    Parameters
    ----------
    device:
        Target device (drives its own clock from the trace's day column).
    ops:
        Operations sorted by day (as produced by
        :meth:`MobileWorkload.ops`).
    daemon_every_days:
        Daemon cadence in simulated days.
    seed:
        Payload-content RNG seed.

    Notes
    -----
    CREATEs that exceed current capacity are skipped and counted in
    ``skipped_full`` -- a real device would return ENOSPC to the app; the
    trim policy then frees space on the next daemon run.  CREATEs naming
    a path that already exists are counted in ``skipped_exists`` (EEXIST,
    not a capacity event).
    """
    rng = np.random.default_rng(seed)
    stats = ReplayStats()
    current_day = -1
    page = device.block_layer.page_bytes
    for op in ops:
        if op.day != current_day:
            current_day = op.day
            device.advance_time(current_day / DAYS_PER_YEAR)
            if current_day % daemon_every_days == 0:
                run = device.run_daemon()
                stats.daemon_runs += 1
                if run.trim is not None:
                    stats.trim_events += 1
        if op.kind is OpKind.CREATE:
            attrs = FileAttributes(
                created_years=device.now_years,
                last_access_years=device.now_years,
                cloud_backed=op.cloud_backed,
            )
            outcome = _create(device, op, attrs, rng, page, stats)
            if outcome != _CREATED:
                _count_skip(stats, outcome)
        elif op.kind is OpKind.OVERWRITE:
            try:
                record = device.filesystem.lookup(op.path)
            except FileNotFoundError:
                outcome = _create(device, op, None, rng, page, stats)
                if outcome != _CREATED:
                    _count_skip(stats, outcome)
                    continue
                record = device.filesystem.lookup(op.path)
            ordinal = int(rng.integers(0, len(record.extents)))
            try:
                device.filesystem.overwrite_page(
                    op.path, ordinal, rng.bytes(min(page, 256))
                )
                stats.overwrites += 1
            except OutOfSpaceError:
                stats.skipped_full += 1
        elif op.kind is OpKind.READ:
            try:
                device.filesystem.read_file(op.path)
                stats.reads += 1
            except FileNotFoundError:
                pass
        elif op.kind is OpKind.DELETE:
            try:
                device.delete_file(op.path)
                stats.deletes += 1
            except FileNotFoundError:
                pass
    return stats
