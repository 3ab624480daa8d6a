"""`ColumnStore`: append-only, block-compressed, indexed column storage.

One store file holds the stacked array observables of many sweep points
-- the population-scale payloads that used to bloat the result cache as
one pickle per point.  The design goals, in the spirit of the paper
(store less, cheaper) and of the ZS archive format:

* **small**: columns are packed together and block-compressed with a
  stdlib codec, so a million-device fleet's observables archive in a
  single file a few percent the size of per-point pickles;
* **scannable**: a footer index maps ``key -> column -> (block, offset,
  dtype, shape)``, so percentile and distribution queries decompress
  only the blocks they touch and never rehydrate whole sweeps;
* **append-only and crash-safe**: writers only ever append framed
  records; the index is *redundant* (every block carries its own TOC),
  so a crash that loses the footer is recovered by scanning frames, and
  a torn tail is detected by the frame CRC, quarantined beside the
  store, and truncated away -- degraded to recomputable misses, never
  mis-loaded;
* **deterministic**: identical content written through identical
  settings produces identical bytes (no timestamps, canonical JSON,
  fixed codec parameters), which is what lets the golden fixture pin
  the format and lets :meth:`compact` converge crashed and clean runs
  to the same file.

Re-appending a key supersedes its previous entry (the index keeps the
latest); :meth:`compact` rewrites the file with only live entries, in
sorted key order, through tmp+rename -- so compaction output depends
only on logical content, never on append history.

Writes route through the :mod:`repro.chaos` filesystem seam with the
result cache's durability ladder: ``none``/``rename`` append plainly
(the CRC catches torn tails), ``fsync`` additionally syncs after every
block append and checkpoint.  One writer per file: the store is owned
by a sweep coordinator, never by its workers.
"""

from __future__ import annotations

import logging
import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro.chaos import DEFAULT_DURABILITY, crash_point, get_fs
from repro.obs import get_observer

from .format import (
    FOOTER_SIZE,
    FORMAT,
    StoreError,
    TAG_BLOCK,
    TAG_HEADER,
    TAG_INDEX,
    canon_json,
    compress,
    decompress,
    frame,
    pack_array,
    pack_block_body,
    pack_footer,
    read_frame,
    unpack_array,
    unpack_block_body,
    unpack_footer,
)

__all__ = ["ColumnStore", "StoreStats"]

_LOG = logging.getLogger("repro.store")

import zlib as _zlib

#: decompressed blocks, with their parsed TOCs, kept hot for reads and
#: scans (tiny: blocks are ~1 MiB)
_BLOCK_CACHE_SLOTS = 4

#: subdirectory (beside the store file) quarantined damage is moved to
_CORRUPT_DIR = "corrupt"


@dataclass(slots=True)
class _Entry:
    """Where one (key, column) lives.  ``block == -1`` means the bytes
    are still in the pending (unflushed) buffer at ``offset``."""

    block: int
    offset: int
    nbytes: int
    dtype: str
    shape: tuple[int, ...]


class _Recreated(Exception):
    """Internal: the header frame was hopeless, so the whole file was
    quarantined and a fresh empty store created in its place."""


@dataclass(slots=True)
class StoreStats:
    """Plain-data snapshot of one store's shape and health."""

    path: str
    format: str
    codec: str
    file_bytes: int
    blocks: int
    keys: int
    columns: int
    live_bytes: int
    pending_entries: int
    clean: bool
    recovered: bool

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "format": self.format,
            "codec": self.codec,
            "file_bytes": self.file_bytes,
            "blocks": self.blocks,
            "keys": self.keys,
            "columns": self.columns,
            "live_bytes": self.live_bytes,
            "pending_entries": self.pending_entries,
            "clean": self.clean,
            "recovered": self.recovered,
        }


class ColumnStore:
    """One append-only columnar store file (see module docstring).

    ``mode="append"`` owns the file: it creates it when missing, and a
    damaged file is *repaired* on open (torn tail quarantined to
    ``corrupt/`` and truncated, index rebuilt from block TOCs).
    ``mode="read"`` never mutates: damage is surfaced as misses and in
    :meth:`verify`, so inspecting an archive cannot rewrite it.

    ``block_bytes`` is the flush threshold: :meth:`put` buffers columns
    until at least this many raw bytes are pending, then packs them
    into one compressed block frame.  A :meth:`checkpoint` (or
    :meth:`close`) flushes the partial block and appends the footer
    index; everything stays readable without one via the recovery scan.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        mode: str = "append",
        codec: str = "zlib",
        block_bytes: int = 1 << 20,
        durability: str = DEFAULT_DURABILITY,
        fs=None,
    ) -> None:
        if mode not in ("append", "read"):
            raise ValueError(f"mode must be 'append' or 'read', got {mode!r}")
        if codec not in ("none", "zlib", "lzma"):
            raise StoreError("unknown-codec", repr(codec))
        if block_bytes < 1:
            raise ValueError("block_bytes must be positive")
        self.path = Path(path)
        self.mode = mode
        self.codec = codec
        self.block_bytes = int(block_bytes)
        self.durability = durability
        self.fs = fs if fs is not None else get_fs()
        #: file offsets of every block frame, in block-ordinal order
        self._blocks: list[int] = []
        self._index: dict[str, dict[str, _Entry]] = {}
        #: pending (key, column, data, dtype, shape) tuples, unflushed
        self._pending: list[tuple[str, str, bytes, str, tuple[int, ...]]] = []
        self._pending_bytes = 0
        #: offset where the next block frame goes (end of data region)
        self._data_end = 0
        #: True when the on-disk file ends with a footer matching memory
        self._clean = False
        #: the open had to rebuild state by scanning block frames
        self.recovered = False
        #: raw tail bytes quarantined by the last recovery (0 = none)
        self.tail_quarantined_bytes = 0
        #: block reads that failed validation since open
        self.corrupt_blocks = 0
        #: block frames appended since open
        self.appends = 0
        #: block ordinal -> (toc, data_start, body) of recently read blocks
        self._block_cache: OrderedDict[int, tuple[dict, int, bytes]] = OrderedDict()
        self._broken = False
        if self.path.exists():
            self._load()
        elif mode == "read":
            raise FileNotFoundError(self.path)
        else:
            self._create()

    # -- open paths --------------------------------------------------------------

    def _create(self) -> None:
        header = frame(
            TAG_HEADER,
            canon_json({"format": FORMAT, "codec": self.codec}),
        )
        fs = self.fs
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with fs.open_write(self.path) as fh:
            fs.write(fh, header)
            if self.durability == "fsync":
                fs.fsync(fh)
        if self.durability == "fsync":
            fs.fsync_dir(self.path.parent)
        self._data_end = len(header)
        self._clean = False

    def _load(self) -> None:
        size = self.path.stat().st_size
        with open(self.path, "rb") as fh:
            try:
                header_end = self._read_header(fh, size)
            except _Recreated:
                return
            try:
                self._load_from_footer(fh, size, header_end)
                self._clean = True
            except StoreError:
                self._recover_scan(fh, size, header_end)

    def _read_header(self, fh, size: int) -> int:
        """Validate the header frame; adopts the file's codec."""
        try:
            tag, payload, end = read_frame(fh, 0, size)
        except StoreError as err:
            if self.mode == "read":
                raise
            # the header itself is damaged: nothing in the file can be
            # trusted, so quarantine everything and start fresh
            self._quarantine_tail(0, size, reason=err.reason)
            self._create()
            raise _Recreated()
        if tag != TAG_HEADER:
            raise StoreError("bad-header", f"first frame tagged {tag!r}")
        import json

        # the frame CRC vouches for the bytes, not for the writer
        try:
            header = json.loads(payload)
            fmt, codec = header.get("format"), header.get("codec")
        except (AttributeError, ValueError) as err:
            raise StoreError("bad-header", f"malformed header: {err!r}")
        if fmt != FORMAT:
            raise StoreError(
                "format-mismatch", f"file says {fmt!r}, this build reads {FORMAT!r}"
            )
        if codec not in ("none", "zlib", "lzma"):
            raise StoreError("unknown-codec", repr(codec))
        self.codec = codec
        return end

    def _load_from_footer(self, fh, size: int, header_end: int) -> None:
        """Fast path: trust the footer, load the index frame it names."""
        if size < header_end + FOOTER_SIZE:
            raise StoreError("no-footer", "file too short for a footer")
        fh.seek(size - FOOTER_SIZE)
        index_offset = unpack_footer(fh.read(FOOTER_SIZE))
        if not header_end <= index_offset <= size - FOOTER_SIZE:
            raise StoreError("bad-footer", f"index offset {index_offset} out of range")
        tag, payload, end = read_frame(fh, index_offset, size)
        if tag != TAG_INDEX or end != size - FOOTER_SIZE:
            raise StoreError("bad-index", "footer does not name a terminal index frame")
        import json

        # the frame CRC vouches for the bytes, not for the writer: a
        # malformed index is damage, answered by the recovery scan
        try:
            index = json.loads(_zlib.decompress(payload))
            blocks = [int(off) for off in index["blocks"]]
            entries = {
                key: {
                    name: _Entry(block, offset, nbytes, dtype, tuple(shape))
                    for name, (block, offset, nbytes, dtype, shape) in cols.items()
                }
                for key, cols in index["entries"].items()
            }
        except (_zlib.error, AttributeError, KeyError, IndexError, TypeError,
                ValueError) as err:
            raise StoreError("bad-index", f"malformed index: {err!r}")
        self._blocks = blocks
        self._index = entries
        self._data_end = index_offset

    def _recover_scan(self, fh, size: int, header_end: int) -> None:
        """Slow path: rebuild everything from block TOCs.

        Walks frames from the header; the first invalid frame (or a
        valid index frame, which is always terminal by construction)
        ends the data region.  In append mode whatever follows is
        quarantined and truncated; read mode only remembers where the
        trustworthy region ends.
        """
        self.recovered = True
        get_observer().count("store.recovered_scan")
        offset = header_end
        blocks: list[int] = []
        index: dict[str, dict[str, _Entry]] = {}
        while offset < size:
            try:
                tag, payload, end = read_frame(fh, offset, size)
            except StoreError:
                break
            if tag == TAG_INDEX:
                # an index frame is only ever the last data the writer
                # appended; treat it (and anything after) as dead tail
                break
            if tag != TAG_BLOCK:
                break
            try:
                body = decompress(self.codec, payload)
                toc, data_start = unpack_block_body(body)
                ordinal = len(blocks)
                for item in toc["entries"]:
                    index.setdefault(str(item["key"]), {})[str(item["column"])] = _Entry(
                        block=ordinal,
                        offset=int(item["offset"]),
                        nbytes=int(item["nbytes"]),
                        dtype=str(item["dtype"]),
                        shape=tuple(int(dim) for dim in item["shape"]),
                    )
            except (StoreError, KeyError, TypeError, ValueError):
                break
            blocks.append(offset)
            offset = end
        self._blocks = blocks
        self._index = index
        self._data_end = offset
        self._clean = False
        if offset < size and self.mode == "append":
            fh.close()
            self._quarantine_tail(offset, size, reason="torn-tail")

    def _quarantine_tail(self, start: int, size: int, reason: str) -> None:
        """Move untrusted bytes ``[start, size)`` to ``corrupt/`` and
        truncate the store back to its last trustworthy frame."""
        amount = size - start
        if amount <= 0:
            return
        dest = self.path.parent / _CORRUPT_DIR / f"{self.path.name}.{reason}@{start}"
        try:
            dest.parent.mkdir(exist_ok=True)
            with open(self.path, "rb") as src:
                src.seek(start)
                dest.write_bytes(src.read(amount))
        except OSError:
            pass  # quarantine is best-effort; truncation is the safety property
        try:
            os.truncate(self.path, start)
        except OSError:
            self._broken = True
            raise
        self.tail_quarantined_bytes += amount
        get_observer().count("store.tail_quarantined")
        _LOG.warning(
            "store %s: quarantined %d damaged tail byte(s) (%s) -> %s",
            self.path, amount, reason, dest,
        )

    # -- writes ------------------------------------------------------------------

    def put(self, key: str, arrays: Mapping[str, np.ndarray]) -> None:
        """Append one point's columns; supersedes any earlier ``key``.

        Buffers until :attr:`block_bytes` raw bytes are pending, then
        flushes one compressed block frame.  Raises ``OSError`` when the
        underlying append fails (the result cache folds that into its
        degradation ladder) and :class:`StoreError` for caller bugs
        (bad key, unsupported dtype) -- those never half-append.
        """
        self._require_writable()
        if not isinstance(key, str) or not key:
            raise StoreError("bad-key", repr(key))
        if not arrays:
            raise StoreError("no-columns", f"put({key!r}) with no arrays")
        staged = []
        for name, arr in arrays.items():
            if not isinstance(name, str) or not name:
                raise StoreError("bad-column-name", repr(name))
            data, dtype, shape = pack_array(arr)
            staged.append((key, name, data, dtype, shape))
        # stage atomically: nothing is pending unless every column packed
        base = len(self._pending)
        self._pending.extend(staged)
        cols = self._index.setdefault(key, {})
        for position, (_, name, data, dtype, shape) in enumerate(staged, start=base):
            self._pending_bytes += len(data)
            cols[name] = _Entry(
                block=-1, offset=position, nbytes=len(data),
                dtype=dtype, shape=shape,
            )
        if self._pending_bytes >= self.block_bytes:
            self._flush_block()

    def _require_writable(self) -> None:
        if self.mode != "append":
            raise StoreError("read-only", str(self.path))
        if self._broken:
            raise OSError(f"store {self.path} is broken (failed truncate)")

    def _flush_block(self) -> None:
        """Pack every pending column into one block frame and append it."""
        if not self._pending:
            return
        toc_entries = []
        parts = []
        offset = 0
        for key, name, data, dtype, shape in self._pending:
            toc_entries.append({
                "key": key,
                "column": name,
                "offset": offset,
                "nbytes": len(data),
                "dtype": dtype,
                "shape": list(shape),
            })
            parts.append(data)
            offset += len(data)
        body = pack_block_body({"entries": toc_entries}, b"".join(parts))
        framed = frame(TAG_BLOCK, compress(self.codec, body))
        try:
            self._append(framed)
        except BaseException:
            self._drop_pending()
            raise
        crash_point("store.block.append")
        ordinal = len(self._blocks)
        self._blocks.append(self._data_end)
        self._data_end += len(framed)
        self.appends += 1
        for position, (key, name, data, _, _) in enumerate(self._pending):
            entry = self._index.get(key, {}).get(name)
            if entry is not None and entry.block == -1 and entry.offset == position:
                entry.block = ordinal
                entry.offset = toc_entries[position]["offset"]
        self._pending.clear()
        self._pending_bytes = 0

    def _append(self, framed: bytes) -> None:
        """Append raw frame bytes at the end of the data region.

        If a checkpointed index sits past ``_data_end`` it is truncated
        away first (the next checkpoint rewrites it); a failed append
        truncates back so a torn partial frame can never sit *under*
        later appends.
        """
        self._require_writable()
        fs = self.fs
        if self._clean or self.path.stat().st_size != self._data_end:
            os.truncate(self.path, self._data_end)
            self._clean = False
        try:
            with fs.open_append(self.path) as fh:
                fs.write(fh, framed)
                if self.durability == "fsync":
                    fs.fsync(fh)
        except BaseException:
            try:
                os.truncate(self.path, self._data_end)
            except OSError:
                self._broken = True
            raise

    def _drop_pending(self) -> None:
        """A failed flush drops the buffered columns: their entries
        revert to misses (recomputable), never to dangling pointers."""
        dropped = 0
        for key, name, _, _, _ in self._pending:
            cols = self._index.get(key)
            if cols is not None and name in cols and cols[name].block == -1:
                del cols[name]
                dropped += 1
                if not cols:
                    del self._index[key]
        self._pending.clear()
        self._pending_bytes = 0
        if dropped:
            get_observer().count("store.pending_dropped", dropped)

    def checkpoint(self) -> None:
        """Flush the partial block and append the footer index.

        After a checkpoint a reader needs no recovery scan.  Appending
        again truncates the index away first; a store that crashes
        between checkpoints is still fully recoverable from its blocks.
        """
        self._require_writable()
        self._flush_block()
        if self._clean:
            return
        index = {
            "format": FORMAT,
            "codec": self.codec,
            "blocks": list(self._blocks),
            "entries": {
                key: {
                    name: [e.block, e.offset, e.nbytes, e.dtype, list(e.shape)]
                    for name, e in sorted(cols.items())
                }
                for key, cols in sorted(self._index.items())
            },
        }
        framed = frame(TAG_INDEX, _zlib.compress(canon_json(index), 6))
        self._append(framed + pack_footer(self._data_end))
        crash_point("store.index.write")
        if self.durability == "fsync":
            self.fs.fsync_dir(self.path.parent)
        self._clean = True

    close = checkpoint

    # -- reads -------------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def keys(self) -> list[str]:
        """Every live key, sorted."""
        return sorted(self._index)

    def columns(self, key: str) -> list[str] | None:
        cols = self._index.get(key)
        return None if cols is None else sorted(cols)

    def get(self, key: str, columns=None) -> dict[str, np.ndarray] | None:
        """The live arrays of ``key`` (or just ``columns``), or None.

        Raises :class:`StoreError` when the bytes backing an entry fail
        validation -- the caller decides whether that is a miss (the
        result cache) or a report line (``verify``/CLI); it is never a
        silently wrong array.
        """
        cols = self._index.get(key)
        if cols is None:
            return None
        wanted = cols if columns is None else {
            name: cols[name] for name in columns if name in cols
        }
        if columns is not None and len(wanted) != len(set(columns)):
            missing = sorted(set(columns) - set(cols))
            raise StoreError("missing-column", f"{key!r} has no {missing}")
        out: dict[str, np.ndarray] = {}
        for name, entry in wanted.items():
            out[name] = self._read_entry(entry)
        return out

    def _read_entry(self, entry: _Entry) -> np.ndarray:
        if entry.block == -1:
            _, _, data, dtype, shape = self._pending[entry.offset]
            return unpack_array(data, dtype, shape)
        _, data_start, body = self._block(entry.block)
        lo = data_start + entry.offset
        hi = lo + entry.nbytes
        if hi > len(body):
            self.corrupt_blocks += 1
            get_observer().count("store.block_corrupt")
            raise StoreError(
                "bad-column", f"entry points past block {entry.block} end"
            )
        return unpack_array(body[lo:hi], entry.dtype, entry.shape)

    def _block(self, ordinal: int) -> tuple[dict, int, bytes]:
        """``(toc, data_start, body)`` of one block, LRU-cached.

        A block is read, CRC-checked, decompressed and its TOC parsed
        once per read from disk; only a block that passed all of that is
        cached, so a damaged one is counted and raised on every access.
        """
        cached = self._block_cache.get(ordinal)
        if cached is not None:
            self._block_cache.move_to_end(ordinal)
            return cached
        offset = self._blocks[ordinal]
        size = self.path.stat().st_size
        try:
            with open(self.path, "rb") as fh:
                tag, payload, _ = read_frame(fh, offset, size)
            if tag != TAG_BLOCK:
                raise StoreError("bad-block", f"frame at {offset} tagged {tag!r}")
            body = decompress(self.codec, payload)
            toc, data_start = unpack_block_body(body)
        except StoreError:
            self.corrupt_blocks += 1
            get_observer().count("store.block_corrupt")
            raise
        block = self._block_cache[ordinal] = (toc, data_start, body)
        while len(self._block_cache) > _BLOCK_CACHE_SLOTS:
            self._block_cache.popitem(last=False)
        return block

    def scan(self, columns=None) -> Iterator[tuple[str, str, np.ndarray]]:
        """Stream live ``(key, column, array)`` triples block by block.

        Each block is decompressed once; superseded entries (a key that
        was re-appended) are skipped.  Pending (unflushed) entries come
        last.  A damaged block raises :class:`StoreError` only when live
        entries depend on it -- silently omitting live data would make a
        partial distribution look complete; a dead block (every entry
        superseded, e.g. healed by a recompute) is skipped, because an
        append-only file legitimately accretes such tombstones until the
        next :meth:`compact`.
        """
        wanted = None if columns is None else set(columns)
        for ordinal in range(len(self._blocks)):
            try:
                toc, data_start, body = self._block(ordinal)
            except StoreError:
                if self._block_is_live(ordinal):
                    raise
                continue
            for item in toc["entries"]:
                key, name = str(item["key"]), str(item["column"])
                if wanted is not None and name not in wanted:
                    continue
                entry = self._index.get(key, {}).get(name)
                if (
                    entry is None
                    or entry.block != ordinal
                    or entry.offset != int(item["offset"])
                ):
                    continue  # superseded by a later append
                lo = data_start + entry.offset
                yield key, name, unpack_array(
                    body[lo:lo + entry.nbytes], entry.dtype, entry.shape
                )
        for position, (key, name, data, dtype, shape) in enumerate(self._pending):
            if wanted is not None and name not in wanted:
                continue
            entry = self._index.get(key, {}).get(name)
            if entry is None or entry.block != -1 or entry.offset != position:
                continue
            yield key, name, unpack_array(data, dtype, shape)

    def _block_is_live(self, ordinal: int) -> bool:
        """Whether any live index entry is backed by block ``ordinal``."""
        return any(
            entry.block == ordinal
            for cols in self._index.values()
            for entry in cols.values()
        )

    def column_values(self, column: str) -> np.ndarray:
        """Every live value of ``column`` across all keys, concatenated
        (raveled) in block order -- the multiset feeding off-disk
        quantile queries.  Empty float64 array when nothing carries it."""
        parts = [arr.ravel() for _, _, arr in self.scan(columns=[column])]
        if not parts:
            return np.array([], dtype=np.float64)
        return np.concatenate(parts)

    # -- maintenance -------------------------------------------------------------

    def stats(self) -> StoreStats:
        live = sum(
            entry.nbytes for cols in self._index.values() for entry in cols.values()
        )
        return StoreStats(
            path=str(self.path),
            format=FORMAT,
            codec=self.codec,
            file_bytes=self.path.stat().st_size if self.path.exists() else 0,
            blocks=len(self._blocks),
            keys=len(self._index),
            columns=sum(len(cols) for cols in self._index.values()),
            live_bytes=live,
            pending_entries=len(self._pending),
            clean=self._clean,
            recovered=self.recovered,
        )

    def verify(self) -> list[str]:
        """Strictly validate every frame and entry; [] means clean.

        Read-only (safe on archives): problems come back as strings
        tagged with the same stable reasons :class:`StoreError` uses.
        """
        problems: list[str] = []
        size = self.path.stat().st_size
        with open(self.path, "rb") as fh:
            offset = 0
            saw_index = False
            while offset < size:
                try:
                    tag, payload, end = read_frame(fh, offset, size)
                except StoreError as err:
                    problems.append(f"frame@{offset}: {err}")
                    break
                if tag == TAG_BLOCK:
                    try:
                        body = decompress(self.codec, payload)
                        unpack_block_body(body)
                    except StoreError as err:
                        problems.append(f"block@{offset}: {err}")
                elif tag == TAG_INDEX:
                    saw_index = True
                    if end != size - FOOTER_SIZE:
                        problems.append(f"index@{offset}: not terminal")
                elif tag != TAG_HEADER or offset != 0:
                    problems.append(f"frame@{offset}: unexpected tag {tag!r}")
                offset = end
                if saw_index:
                    break
            if saw_index:
                fh.seek(size - FOOTER_SIZE)
                try:
                    unpack_footer(fh.read(FOOTER_SIZE))
                except StoreError as err:
                    problems.append(f"footer: {err}")
        for key, cols in self._index.items():
            for name, entry in cols.items():
                try:
                    self._read_entry(entry)
                except StoreError as err:
                    problems.append(f"entry {key}/{name}: {err}")
        return problems

    def compact(self, codec: str | None = None) -> dict:
        """Rewrite the store with only live entries, tmp+rename atomically.

        Output bytes depend only on logical content (sorted keys, fixed
        codec parameters), so compacting a crashed-and-resumed store and
        a clean one converges to identical files.  Entries whose backing
        bytes fail validation are *dropped* (counted in the report) --
        compaction doubles as repair, since those entries could only
        ever answer as misses.  Returns a plain-data report.
        """
        self._require_writable()
        self._flush_block()
        tmp = self.path.with_name(self.path.name + ".compact.tmp")
        if tmp.exists():
            tmp.unlink()
        before = self.path.stat().st_size
        fresh = ColumnStore(
            tmp, mode="append", codec=codec or self.codec,
            block_bytes=self.block_bytes, durability=self.durability, fs=self.fs,
        )
        dropped = 0
        for key in sorted(self._index):
            try:
                arrays = self.get(key)
            except StoreError as err:
                dropped += 1
                _LOG.warning("compact %s: dropping %s (%s)", self.path, key, err)
                continue
            if arrays:
                # sorted columns: a freshly-appended index iterates in
                # put order, a footer-loaded one in sorted order -- the
                # output bytes must not depend on which history this is
                fresh.put(key, {name: arrays[name] for name in sorted(arrays)})
        fresh.checkpoint()
        crash_point("store.compact.rename")
        self.fs.replace(tmp, self.path)
        if self.durability == "fsync":
            self.fs.fsync_dir(self.path.parent)
        # adopt the fresh store's state wholesale
        self.codec = fresh.codec
        self._blocks = fresh._blocks
        self._index = fresh._index
        self._pending = []
        self._pending_bytes = 0
        self._data_end = fresh._data_end
        self._clean = True
        self._block_cache.clear()
        after = self.path.stat().st_size
        return {
            "before_bytes": before,
            "after_bytes": after,
            "keys": len(self._index),
            "dropped_entries": dropped,
        }


