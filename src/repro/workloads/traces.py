"""Trace format: host operations, record/replay.

A :class:`TraceOp` is one host operation (create/overwrite/read/delete),
replayable against the bit-exact :class:`~repro.core.SOSDevice`; it
serializes to a plain dict so traces can be saved/loaded as JSON.  The
epoch-level lifetime model takes no trace: it steps the per-day volume
arrays of :meth:`~repro.workloads.mobile.MobileWorkload.daily_volume_arrays`.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.host.files import FileKind

__all__ = ["OpKind", "TraceOp", "save_trace", "load_trace"]


class OpKind(enum.Enum):
    """Host operation type."""

    CREATE = "create"
    OVERWRITE = "overwrite"
    READ = "read"
    DELETE = "delete"


@dataclass(frozen=True, slots=True)
class TraceOp:
    """One host operation."""

    day: int
    kind: OpKind
    path: str
    file_kind: FileKind
    size_bytes: int
    #: for CREATE: whether the file has a cloud copy
    cloud_backed: bool = False

    def to_dict(self) -> dict:
        """JSON-safe dict form."""
        d = asdict(self)
        d["kind"] = self.kind.value
        d["file_kind"] = self.file_kind.value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TraceOp":
        """Inverse of :meth:`to_dict`."""
        return cls(
            day=d["day"],
            kind=OpKind(d["kind"]),
            path=d["path"],
            file_kind=FileKind(d["file_kind"]),
            size_bytes=d["size_bytes"],
            cloud_backed=d.get("cloud_backed", False),
        )


def save_trace(ops: list[TraceOp], path: str | Path) -> None:
    """Serialize a trace to JSON."""
    Path(path).write_text(json.dumps([op.to_dict() for op in ops]))


def load_trace(path: str | Path) -> list[TraceOp]:
    """Load a trace saved by :func:`save_trace`."""
    return [TraceOp.from_dict(d) for d in json.loads(Path(path).read_text())]
