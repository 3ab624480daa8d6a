"""Deterministic filesystem fault injection: the seeded fs shim.

Every durable write the coordinator stack performs -- result-cache
records, job-journal entries -- routes through a tiny filesystem
interface (:class:`RealFs`) instead of calling ``os`` directly.  The
indirection buys one thing: a :class:`ChaosFs` can be swapped in (per
construction argument, process-globally via :func:`set_fs`, or from the
``REPRO_CHAOS_FS`` environment variable so subprocesses inherit it) and
fire the real-world I/O failures the host-stack literature catalogs --
``ENOSPC``, ``EIO``, torn partial writes, failed renames -- at
**SeedSequence-derived points**, so a failing run replays bit-for-bit.

The injection contract mirrors :mod:`repro.faults` for simulated
devices: decisions are a pure function of ``(seed, op kind, op
ordinal)``, never of wall clock or interleaving, which makes every
chaos test deterministic and every failure reproducible from its seed.

With chaos disabled nothing changes: :data:`REAL_FS` is a stateless
singleton whose methods are one-line ``os`` calls, and
:func:`get_fs` returns it without allocation -- the transparency guard
in ``tests/chaos`` pins that the hooks cost nothing when idle.

The one durable writer sits on top of the shim: :func:`write_durably`
holds the tmp-write/fsync/rename protocol of every rung of
:data:`DURABILITY_LEVELS`, and :func:`quarantine` moves a damaged file
aside; the result cache and the job journal both call them.
"""

from __future__ import annotations

import errno
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from .crash import crash_point

__all__ = [
    "CHAOS_FS_ENV",
    "ChaosFs",
    "DEFAULT_DURABILITY",
    "DURABILITY_LEVELS",
    "FaultSpec",
    "RealFs",
    "REAL_FS",
    "chaos_fs",
    "get_fs",
    "quarantine",
    "set_fs",
    "write_durably",
]

#: Environment variable that installs a ChaosFs at import time, e.g.
#: ``REPRO_CHAOS_FS="seed=7,enospc_after=3,torn_write_rate=0.2"``.
#: Worker and CLI subprocesses inherit it, so one variable injects
#: faults through a whole process tree.
CHAOS_FS_ENV = "REPRO_CHAOS_FS"


class RealFs:
    """Pass-through filesystem layer: each method is one ``os`` call.

    Stateless by design -- one shared singleton (:data:`REAL_FS`) serves
    every cache and journal in the process, and the disabled-chaos path
    stays allocation-free.
    """

    __slots__ = ()

    name = "real"

    def open_write(self, path: str | Path) -> BinaryIO:
        return open(path, "wb")

    def open_append(self, path: str | Path) -> BinaryIO:
        return open(path, "ab")

    def write(self, fh: BinaryIO, data: bytes) -> None:
        fh.write(data)

    def fsync(self, fh: BinaryIO) -> None:
        fh.flush()
        os.fsync(fh.fileno())

    def replace(self, src: str | Path, dst: str | Path) -> None:
        os.replace(src, dst)

    def fsync_dir(self, path: str | Path) -> None:
        # durability of a rename needs the *parent directory* synced too;
        # opening read-only is how POSIX lets you reach its metadata
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


REAL_FS = RealFs()


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """What a :class:`ChaosFs` injects, and how often.

    Rates are per-operation probabilities in ``[0, 1]`` drawn
    deterministically from the fs seed; ``enospc_after`` is a hard
    schedule -- every ``write``/``open_write`` from that ordinal on
    raises ``ENOSPC``, the shape a filling disk actually has.
    """

    #: probability a write op raises ENOSPC
    enospc_rate: float = 0.0
    #: probability a write/fsync op raises EIO
    eio_rate: float = 0.0
    #: probability a write silently persists only a prefix (torn write)
    torn_write_rate: float = 0.0
    #: probability a replace (rename) raises EIO
    rename_fail_rate: float = 0.0
    #: write ops before the disk is "full"; None = never
    enospc_after: int | None = None

    def __post_init__(self) -> None:
        for name in ("enospc_rate", "eio_rate", "torn_write_rate", "rename_fail_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.enospc_after is not None and self.enospc_after < 0:
            raise ValueError("enospc_after must be >= 0")


#: op-kind component of the SeedSequence spawn key; fixed integers so a
#: spec's injection schedule never moves when op kinds are added
_OP_IDS = {"open": 1, "write": 2, "fsync": 3, "replace": 4}


class ChaosFs(RealFs):
    """Seeded fault-injecting filesystem layer.

    Each operation kind keeps its own ordinal counter; the decision for
    the ``n``-th op of kind ``k`` derives from
    ``SeedSequence(entropy=seed, spawn_key=(op_id, n))`` -- the same
    convention the sweep runner's jittered backoff uses -- so two runs
    with the same seed inject identical faults at identical points
    regardless of timing.  ``injected`` counts what actually fired, for
    assertions and reports.
    """

    __slots__ = ("seed", "spec", "_ordinals", "injected")

    name = "chaos"

    def __init__(self, seed: int = 0, spec: FaultSpec | None = None) -> None:
        self.seed = int(seed)
        self.spec = spec if spec is not None else FaultSpec()
        self._ordinals = {kind: 0 for kind in _OP_IDS}
        self.injected: dict[str, int] = {}

    # -- deterministic draws ---------------------------------------------------

    def _next(self, kind: str) -> tuple[int, float, float]:
        """Ordinal plus two uniform draws for this op (decision, detail)."""
        ordinal = self._ordinals[kind]
        self._ordinals[kind] = ordinal + 1
        state = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(_OP_IDS[kind], ordinal)
        ).generate_state(2, dtype=np.uint64)
        return ordinal, float(state[0] / 2.0**64), float(state[1] / 2.0**64)

    def _fire(self, fault: str, op: str, code: int) -> None:
        self.injected[fault] = self.injected.get(fault, 0) + 1
        raise OSError(code, f"injected {fault} (chaos fs, op={op})")

    # -- the injected surface --------------------------------------------------

    def open_write(self, path: str | Path) -> BinaryIO:
        ordinal, decision, _ = self._next("open")
        if self.spec.enospc_after is not None and ordinal >= self.spec.enospc_after:
            self._fire("enospc", "open", errno.ENOSPC)
        if decision < self.spec.enospc_rate:
            self._fire("enospc", "open", errno.ENOSPC)
        return super().open_write(path)

    def open_append(self, path: str | Path) -> BinaryIO:
        # appends share the "open" ordinal stream: to an injection
        # schedule a store-block append and a record create are the
        # same kind of durable open
        ordinal, decision, _ = self._next("open")
        if self.spec.enospc_after is not None and ordinal >= self.spec.enospc_after:
            self._fire("enospc", "open", errno.ENOSPC)
        if decision < self.spec.enospc_rate:
            self._fire("enospc", "open", errno.ENOSPC)
        return super().open_append(path)

    def write(self, fh: BinaryIO, data: bytes) -> None:
        ordinal, decision, detail = self._next("write")
        if self.spec.enospc_after is not None and ordinal >= self.spec.enospc_after:
            self._fire("enospc", "write", errno.ENOSPC)
        threshold = self.spec.enospc_rate
        if decision < threshold:
            self._fire("enospc", "write", errno.ENOSPC)
        threshold += self.spec.eio_rate
        if decision < threshold:
            self._fire("eio", "write", errno.EIO)
        threshold += self.spec.torn_write_rate
        if decision < threshold and len(data) > 1:
            # the nasty case: persist a strict prefix and *succeed* --
            # only a checksum can catch this downstream
            cut = 1 + int(detail * (len(data) - 1))
            self.injected["torn_write"] = self.injected.get("torn_write", 0) + 1
            super().write(fh, data[:cut])
            return
        super().write(fh, data)

    def fsync(self, fh: BinaryIO) -> None:
        _, decision, _ = self._next("fsync")
        if decision < self.spec.eio_rate:
            self._fire("eio", "fsync", errno.EIO)
        super().fsync(fh)

    def replace(self, src: str | Path, dst: str | Path) -> None:
        _, decision, _ = self._next("replace")
        if decision < self.spec.rename_fail_rate:
            self._fire("rename_fail", "replace", errno.EIO)
        super().replace(src, dst)


# -- process-global installation ----------------------------------------------

def _fs_from_env() -> RealFs:
    """Build the process fs from ``REPRO_CHAOS_FS``, or the real one."""
    raw = os.environ.get(CHAOS_FS_ENV, "").strip()
    if not raw:
        return REAL_FS
    known = {f.name for f in fields(FaultSpec)}
    seed = 0
    kwargs: dict[str, float | int] = {}
    for item in raw.split(","):
        name, _, value = item.partition("=")
        name = name.strip()
        if name == "seed":
            seed = int(value)
        elif name in ("enospc_after",):
            kwargs[name] = int(value)
        elif name in known:
            kwargs[name] = float(value)
        else:
            raise ValueError(
                f"{CHAOS_FS_ENV}: unknown field {name!r} "
                f"(known: seed, {', '.join(sorted(known))})"
            )
    return ChaosFs(seed=seed, spec=FaultSpec(**kwargs))


_FS: RealFs = _fs_from_env()


def get_fs() -> RealFs:
    """The process-global filesystem layer (the real one by default)."""
    return _FS


def set_fs(fs: RealFs) -> RealFs:
    """Install ``fs`` globally; returns the previous layer."""
    global _FS
    previous = _FS
    _FS = fs
    return previous


@contextmanager
def chaos_fs(fs: RealFs) -> Iterator[RealFs]:
    """Scope a filesystem layer: caches/journals *constructed inside*
    the block pick it up (the layer binds at construction, matching how
    one sweep owns one cache)."""
    previous = set_fs(fs)
    try:
        yield fs
    finally:
        set_fs(previous)


# -- the durable writer -------------------------------------------------------

#: the durability ladder, weakest to strongest
DURABILITY_LEVELS = ("none", "rename", "fsync")

#: the rung every durable writer takes unless its caller picks another
DEFAULT_DURABILITY = "rename"


def write_durably(
    fs: RealFs, path: Path, data: bytes, durability: str, label: str
) -> None:
    """Persist ``data`` as ``path`` under one rung of the ladder.

    ``none`` writes in place: a crash can tear the file, and the
    reader's checksum or parser must catch it.  ``rename`` writes a
    ``*.tmp`` sibling and replaces, so a reader sees the old bytes or
    the new ones, never a torn mix.  ``fsync`` also syncs the file
    before the rename and the directory after it, so a power cut cannot
    lose an acknowledged write.  The crash points
    ``<label>.pre_rename`` and ``<label>.post_rename`` bracket the
    rename.  A failed write removes its tmp file and raises.
    """
    if durability == "none":
        with fs.open_write(path) as fh:
            fs.write(fh, data)
        return
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f"{path.stem}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fs.write(fh, data)
            if durability == "fsync":
                fs.fsync(fh)
        crash_point(f"{label}.pre_rename")
        fs.replace(tmp_name, path)
        if durability == "fsync":
            fs.fsync_dir(path.parent)
        crash_point(f"{label}.post_rename")
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def quarantine(path: Path, corrupt_dir: Path) -> Path:
    """Move one damaged file into ``corrupt_dir``; returns where it is.

    The move happens once, so a restart cannot find the same damage
    again.  When it fails (disk trouble, a concurrent delete) the file
    stays and ``path`` comes back: the next write of that name
    replaces it.
    """
    dest = corrupt_dir / path.name
    try:
        corrupt_dir.mkdir(exist_ok=True)
        os.replace(path, dest)
    except OSError:
        return path
    return dest
