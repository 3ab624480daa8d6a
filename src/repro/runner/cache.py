"""On-disk result cache for sweep points: checksummed, degrade-don't-die.

Each sweep point is identified by a *stable key*: the SHA-256 of a
canonical JSON encoding of everything that determines its result -- the
sweep name, the :func:`code_fingerprint` of the ``repro`` source, the
point's parameters, and its derived seed.  Editing any source file
changes every key, so a result can never outlive the code that
produced it; entries written by other code are simply never read
again.  Results are persisted one-file-per-key as **framed records**
(magic + length + CRC32C + pickled payload, see
:mod:`repro.runner.record`), written atomically under the configured
durability policy, so a re-run of a sweep only computes points whose
key changed.

Three hardening contracts replace the old "a torn file is a miss"
hand-wave:

* **corruption is detected and quarantined** -- a record that fails
  frame validation (torn tail, bit rot, truncation, wrong format) or
  unpickles into the wrong payload shape is moved to ``corrupt/``
  beside the store, counted, and warned about once; it is *never*
  silently mis-loaded, and it cannot be re-detected on every restart
  because the move happens exactly once;
* **an explicit durability ladder** -- ``none`` writes in place (fast,
  crash-torn files possible, the CRC catches them), ``rename`` (the
  default) writes tmp-then-``os.replace`` so readers never see a torn
  record, ``fsync`` additionally syncs the file *and its parent
  directory* before/after the rename so a power cut cannot lose an
  acknowledged store (:func:`repro.chaos.fs.write_durably`, shared with
  the job journal);
* **ENOSPC degrades, it does not kill** -- the first full-disk error
  flips the cache into read-through *passthrough* mode: cached hits are
  still served, new stores are dropped (counted), and the sweep keeps
  running; other I/O errors drop the single store and count it.

Values that carry numpy arrays (population-scale batch observables) do
not pickle whole: the arrays are lifted out into a shared append-only
:class:`repro.store.ColumnStore` file (``columns.rcs``, one per cache,
block-compressed and footer-indexed), and the framed pickle keeps only
a skeleton naming its columns.  Scalar values are byte-for-byte
unaffected.  The store degrades exactly like the pickle path: a store
that cannot be opened or appended falls back to whole-value pickles, a
skeleton whose columns are missing or damaged quarantines as a miss
and recomputes, and reads are *bit-identical or absent* -- never
approximate.  The coordinator calls :meth:`ResultCache.finalize` once
per sweep to flush and index the store; everything stays recoverable
without it.

A store file has **one appender**: a second appender would truncate
the first one's blocks and index different bytes at the same offsets.
So the cache takes an exclusive ``flock`` on its directory before it
opens the store for append, and :meth:`ResultCache.finalize` releases
it.  A cache that finds the lock taken (another sweep, thread or
process on the same directory) stores whole-value pickles and joins
skeletons through a read-only store; a skeleton it cannot join is a
plain miss, never a quarantine, since the appender may simply not have
written it yet.

All file I/O routes through the :mod:`repro.chaos` filesystem layer, so
the chaos suite can fire ENOSPC/EIO/torn-write/failed-rename at seeded
points; with chaos disabled the layer is a stateless pass-through.
Leftover ``*.tmp`` files from a writer that died before its rename are
swept by :meth:`ResultCache.remove_stale_tmp` once they are old enough
that no live writer can still own them; opening a cache does **not**
scan the directory -- a worker-side open stays O(1).
"""

from __future__ import annotations

import errno
import fcntl
import functools
import hashlib
import importlib.util
import json
import logging
import math
import os
import pickle
import sys
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy

from repro.chaos import (
    DEFAULT_DURABILITY, DURABILITY_LEVELS, get_fs, quarantine, write_durably,
)
from repro.obs import get_observer

from .record import RecordError, frame_record, unframe_record

__all__ = ["CacheEntry", "ResultCache", "code_fingerprint", "stable_key"]

_LOG = logging.getLogger("repro.runner.cache")

#: Exceptions that mean "this payload cannot serve a hit".  Beyond
#: torn-pickle errors (UnpicklingError/EOFError), a *stale* pickle whose
#: class layout changed since it was written surfaces as AttributeError
#: (attribute/class gone), ImportError/ModuleNotFoundError (module
#: moved), TypeError (constructor signature changed), or IndexError
#: (reduce payload reshaped) -- all of them quarantine as stale.
_MISS_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    KeyError,
    AttributeError,
    ImportError,
    TypeError,
    IndexError,
)


def _jsonable(obj: Any) -> Any:
    """Coerce ``obj`` into a canonical JSON-encodable form.

    Tuples become lists, dict keys must be strings, and anything that is
    not a plain scalar/collection is rejected -- a cache key must never
    depend on ``repr`` of an arbitrary object.

    Floats must be canonical: ``json.dumps`` emits ``NaN``/``Infinity``
    (not RFC JSON, and ``NaN != NaN`` would split keys for params that
    compare unequal to themselves) and preserves the sign of ``-0.0``
    (two params that compare equal would hash to different keys).  So
    non-finite floats are rejected with a clear error and negative zero
    canonicalizes to ``0.0``.
    """
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(
                f"cache-key floats must be finite, got {obj!r} "
                "(NaN/inf would split or collide cache keys)"
            )
        return 0.0 if obj == 0.0 else obj
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_jsonable(item) for item in obj]
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"cache-key dict keys must be str, got {key!r}")
            out[key] = _jsonable(value)
        return out
    raise TypeError(f"value {obj!r} of type {type(obj).__name__} is not cache-keyable")


def _unlock(fd: int) -> None:
    # LOCK_UN first: forked workers hold duplicates of the descriptor
    fcntl.flock(fd, fcntl.LOCK_UN)
    os.close(fd)


def stable_key(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``obj``."""
    canonical = json.dumps(
        _jsonable(obj), sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@functools.cache
def code_fingerprint() -> str:
    """SHA-256 hex digest of the imported ``repro`` package's source and
    of the dependency versions it runs on.

    Hashes the relative path and bytes of every ``.py`` file under the
    package, in sorted path order, so any edit, addition, removal or
    rename moves it; then ``numpy.__version__``, ``sys.version`` and
    scipy's ``version.py`` (found without importing scipy), so an
    upgrade moves it too.  Part of every sweep point key and job id: the
    one record of which code made a result.  Computed on first use and
    kept for the process.
    """
    import repro

    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        rel = path.relative_to(root).as_posix().encode("utf-8")
        digest.update(b"%d:%s:%d:" % (len(rel), rel, len(data)))
        digest.update(data)
    scipy = Path(importlib.util.find_spec("scipy").origin).parent
    for data in (numpy.__version__.encode(), sys.version.encode(),
                 (scipy / "version.py").read_bytes()):
        digest.update(b"%d:%s" % (len(data), data))
    return digest.hexdigest()


@dataclass(frozen=True, slots=True)
class CacheEntry:
    """One cached point result plus the wall time of its original compute."""

    value: Any
    wall_s: float


class ResultCache:
    """Framed-record-per-key store under one directory.

    Construction is deliberately rescan-free: it creates the directory
    and nothing else.  Stale-``*.tmp`` cleanup is a separate, explicit
    operation (:meth:`remove_stale_tmp`) because globbing the store is
    O(cached points) -- at million-point scale one sweep per *run* is
    fine, one sweep per *open* is quadratic.  Pass ``scan_stale_tmp=True``
    to opt a construction into the sweep (what the sweep coordinator
    does, once per :func:`~repro.runner.sweep.run_sweep` call).

    ``durability`` picks a rung of :data:`repro.chaos.DURABILITY_LEVELS`;
    ``fs`` overrides the process-global :func:`repro.chaos.get_fs` layer
    (the chaos suite injects faults through it).
    """

    #: age (seconds) past which an orphaned ``*.tmp`` file is fair game
    STALE_TMP_AGE_S = 3600.0

    #: subdirectory quarantined (corrupt/invalid) records are moved to
    CORRUPT_DIR = "corrupt"

    #: the shared column-store file for array payloads, one per cache
    STORE_FILE = "columns.rcs"

    def __init__(
        self,
        root: str | Path,
        *,
        scan_stale_tmp: bool = False,
        durability: str = DEFAULT_DURABILITY,
        fs=None,
    ) -> None:
        if durability not in DURABILITY_LEVELS:
            raise ValueError(
                f"durability must be one of {DURABILITY_LEVELS}, got {durability!r}"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.durability = durability
        self.fs = fs if fs is not None else get_fs()
        #: latched by the first ENOSPC: serve hits, drop new stores
        self.passthrough = False
        #: stores dropped (passthrough mode or individual I/O errors)
        self.stores_dropped = 0
        #: non-ENOSPC I/O errors that each dropped one store
        self.store_errors = 0
        #: records moved to ``corrupt/`` after failing validation
        self.corrupt_quarantined = 0
        #: well-formed pickles whose payload shape was wrong
        self.invalid_payloads = 0
        #: skeletons whose store columns were missing/damaged (recomputed)
        self.column_misses = 0
        #: column appends that failed and fell back to whole pickles
        self.column_errors = 0
        #: the lazily-opened ColumnStore (None until an array value
        #: arrives or a skeleton is loaded): ``mode="append"`` while this
        #: cache holds the directory lock, ``mode="read"`` otherwise
        self._store = None
        #: open failed: the cache latched back to whole-value pickles
        self._store_failed = False
        #: releases the directory's append lock (None: not held)
        self._lock = None
        #: the store's stats at the last finalize, for storage_report
        self._store_stats = None
        if scan_stale_tmp:
            self.remove_stale_tmp()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    # -- the column store backend ----------------------------------------------

    def _get_store(self, create: bool):
        """The cache's ColumnStore, opened (or created) lazily.

        Opened for append when this cache holds the directory lock, read
        only otherwise.  Returns None when there is nothing to open (no
        file, and no ``create`` by the lock holder) or when opening
        failed -- the latter latches
        ``_store_failed`` so the cache degrades to whole-value pickles
        instead of retrying a broken store on every point.
        """
        if self._store is not None or self._store_failed:
            return self._store
        path = self.root / self.STORE_FILE
        appender = self._take_lock()
        if not path.exists() and not (create and appender):
            return None
        from repro.store import ColumnStore, StoreError

        try:
            # block_bytes=1: every put flushes its own block, so a
            # point's columns are CRC-framed on disk *before* its
            # skeleton pickle becomes visible -- the sweep's
            # persist-before-proceed invariant holds at the store too.
            # compact() repacks into properly sized blocks afterwards.
            # A new store is zlib; an existing one keeps its own codec.
            self._store = ColumnStore(
                path, mode="append" if appender else "read", block_bytes=1,
                durability=self.durability, fs=self.fs,
            )
        except (OSError, StoreError) as err:
            self._store_failed = True
            get_observer().count("cache.store_open_failed")
            _LOG.warning(
                "result cache %s: column store unavailable (%s); "
                "falling back to whole-value pickles", self.root, err,
            )
            if isinstance(err, OSError):
                self._degrade(err)
            return None
        return self._store

    def _take_lock(self) -> bool:
        """Take the directory's append lock without blocking; True if held."""
        if self._lock is None:
            try:
                fd = os.open(self.root, os.O_RDONLY)
            except OSError:
                return False
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                os.close(fd)
                return False
            # a cache dropped without finalize() still lets go of the lock
            self._lock = weakref.finalize(self, _unlock, fd)
        return True

    def finalize(self) -> None:
        """Flush and index the column store, then release the append lock.

        The sweep coordinator calls this once per run; a cache that
        never sees it stays fully recoverable (the store rebuilds its
        index from block TOCs), finalizing just makes reopening O(1).
        The store's stats stay in :meth:`storage_report`; a later load
        or store reopens it.
        """
        store, self._store = self._store, None
        if store is not None:
            if store.mode == "append":
                try:
                    store.checkpoint()
                except OSError as err:
                    self._degrade(err)
            self._store_stats = store.stats()
        if self._lock is not None:
            self._lock()
            self._lock = None

    # -- reads -----------------------------------------------------------------

    def load(self, key: str) -> CacheEntry | None:
        """Return the cached entry for ``key``, or None on miss.

        Damage is *detected*, never mis-loaded: a record failing frame
        validation (CRC/magic/length) or carrying the wrong payload
        shape is quarantined to ``corrupt/`` and answers as a miss.
        """
        path = self._path(key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            get_observer().count("cache.read_errors")
            return None
        try:
            payload_bytes = unframe_record(data)
        except RecordError as err:
            self._quarantine(path, err.reason)
            return None
        try:
            payload = pickle.loads(payload_bytes)
        except _MISS_ERRORS:
            # checksum passed but the pickle's class layout has moved on
            # (renamed module, removed attribute): stale, not torn
            self._quarantine(path, "stale-pickle")
            return None
        if (
            not isinstance(payload, dict)
            or "value" not in payload
            or not isinstance(payload.get("wall_s"), (int, float))
        ):
            # a well-formed pickle with the wrong shape must be a miss
            # here, not a KeyError at some distant use-site
            self.invalid_payloads += 1
            get_observer().count("cache.invalid_payloads")
            self._quarantine(path, "invalid-payload")
            return None
        value = payload["value"]
        if "columns" in payload:
            value = self._join_columns(key, path, payload)
            if value is None:
                return None
        return CacheEntry(value=value, wall_s=float(payload["wall_s"]))

    def _join_columns(self, key: str, path: Path, payload: dict):
        """Rehydrate a skeleton payload from the column store.

        Any trouble -- no store, missing key, missing column, damaged
        block -- quarantines the skeleton and answers as a miss: the
        point recomputes and re-stores, superseding the bad entry.
        Served values are bit-identical to what was stored, or absent.
        """
        from repro.store import StoreError, join_value

        store = self._get_store(create=False)
        reason = "store-miss"
        if store is not None:
            try:
                arrays = store.get(key, columns=payload["columns"])
                if arrays is not None:
                    return join_value(payload["value"], arrays)
            except StoreError as err:
                reason = f"store-{err.reason}"
            except KeyError:
                reason = "store-skeleton-mismatch"
        self.column_misses += 1
        get_observer().count("cache.column_misses")
        if self._lock is not None:
            self._quarantine(path, reason)
        return None

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move one damaged record to ``corrupt/``, once, loudly."""
        dest = quarantine(path, self.root / self.CORRUPT_DIR)
        self.corrupt_quarantined += 1
        get_observer().count("cache.corrupt_quarantined")
        _LOG.warning(
            "quarantined corrupt cache record %s (%s) -> %s", path.name, reason, dest
        )

    # -- writes ----------------------------------------------------------------

    def store(self, key: str, value: Any, wall_s: float) -> None:
        """Persist one point result under the durability policy.

        Serialization errors (unpicklable values) raise -- they are
        bugs.  I/O errors degrade: ENOSPC latches passthrough mode and
        every store from then on is dropped (hits are still served);
        any other ``OSError`` drops this store and counts it.
        """
        if self.passthrough:
            self.stores_dropped += 1
            get_observer().count("cache.stores_dropped")
            return
        payload = self._split_columns(key, value, wall_s)
        if self.passthrough:  # a store append just latched ENOSPC
            return
        framed = frame_record(pickle.dumps(payload))
        try:
            write_durably(
                self.fs, self._path(key), framed, self.durability, "cache.store"
            )
        except OSError as err:
            self._degrade(err)

    def _split_columns(self, key: str, value: Any, wall_s: float) -> dict:
        """Build the pickle payload, lifting arrays into the column store.

        Values without storable arrays produce the exact legacy payload
        (and so the exact legacy bytes).  A failed append falls back to
        the whole-value pickle -- except ENOSPC, which latches
        passthrough via :meth:`_degrade` like any other full-disk write.
        """
        whole = {"value": value, "wall_s": wall_s}
        from repro.store import split_value

        skeleton, columns = split_value(value)
        if not columns:
            return whole
        store = self._get_store(create=True)
        if store is None or store.mode != "append":
            return whole
        try:
            store.put(key, columns)
        except OSError as err:
            if err.errno == errno.ENOSPC:
                self._degrade(err)
                return whole
            self.column_errors += 1
            get_observer().count("cache.column_errors")
            _LOG.warning(
                "result cache %s: column append failed (%s); storing %s "
                "as a whole pickle", self.root, err, key,
            )
            return whole
        return {"value": skeleton, "wall_s": wall_s, "columns": sorted(columns)}

    def _degrade(self, err: OSError) -> None:
        """Fold one failed store into the degradation state."""
        self.stores_dropped += 1
        obs = get_observer()
        obs.count("cache.stores_dropped")
        if err.errno == errno.ENOSPC:
            if not self.passthrough:
                self.passthrough = True
                obs.count("cache.enospc_passthrough")
                _LOG.warning(
                    "result cache %s: disk full (ENOSPC); degrading to "
                    "read-through passthrough -- hits still served, new "
                    "stores dropped",
                    self.root,
                )
        else:
            self.store_errors += 1
            obs.count("cache.store_errors")
            _LOG.warning(
                "result cache %s: dropped one store (%s)", self.root, err
            )

    # -- reporting -------------------------------------------------------------

    def storage_report(self) -> dict:
        """Plain-data degradation/durability summary for results and health.

        The ``store`` sub-dict appears only when the column store is
        active, so scalar-only caches report exactly what they always
        did (the chaos transparency suite pins this).
        """
        report = {
            "durability": self.durability,
            "passthrough": self.passthrough,
            "stores_dropped": self.stores_dropped,
            "store_errors": self.store_errors,
            "corrupt_quarantined": self.corrupt_quarantined,
            "invalid_payloads": self.invalid_payloads,
        }
        stats = self._store.stats() if self._store is not None else self._store_stats
        if stats is not None:
            report["store"] = {
                "codec": stats.codec,
                "file_bytes": stats.file_bytes,
                "blocks": stats.blocks,
                "keys": stats.keys,
                "recovered": stats.recovered,
                "column_misses": self.column_misses,
                "column_errors": self.column_errors,
            }
        elif self._store_failed:
            report["store"] = {
                "failed": True,
                "column_misses": self.column_misses,
                "column_errors": self.column_errors,
            }
        return report

    @property
    def degraded(self) -> bool:
        """Whether the cache is running in a reduced mode."""
        return self.passthrough or self.store_errors > 0

    # -- maintenance -----------------------------------------------------------

    def remove_stale_tmp(self, max_age_s: float | None = None) -> int:
        """Delete orphaned ``*.tmp`` files left by a killed writer.

        Only files older than ``max_age_s`` (default
        :attr:`STALE_TMP_AGE_S`) are removed, so a concurrent sweep's
        in-flight write is never swept out from under its rename.
        Returns the number of files removed.
        """
        cutoff = time.time() - (
            self.STALE_TMP_AGE_S if max_age_s is None else max_age_s
        )
        removed = 0
        for tmp in self.root.glob("*.tmp"):
            try:
                if tmp.stat().st_mtime <= cutoff:
                    tmp.unlink()
                    removed += 1
            except FileNotFoundError:
                continue  # lost a race with another cleaner/writer
        return removed
