"""ColumnStore behavior: append, supersede, recover, quarantine, compact.

The claims the result-cache integration and the crash matrix lean on,
each pinned on small stores:

* reads are bit-identical to what was written, flushed or pending;
* losing the footer/index costs nothing but a recovery scan;
* a torn tail is quarantined (append mode) or ignored (read mode),
  never interpreted;
* compaction output depends only on logical content -- append order,
  supersede history, and prior block layout all wash out.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np
import pytest

import repro.store.store as store_module
from repro.obs import observed
from repro.store import CODECS, ColumnStore, StoreError
from repro.store.format import (
    TAG_BLOCK,
    TAG_INDEX,
    canon_json,
    compress,
    frame,
    pack_footer,
    read_frame,
)

ARRS = {
    "wear": np.linspace(0.0, 1.5, 17),
    "retired": np.arange(17, dtype=np.int64) % 5,
    "flags": np.array([True, False, True]),
}


def _assert_same(got: dict, want: dict) -> None:
    assert sorted(got) == sorted(want)
    for name, arr in want.items():
        assert got[name].dtype == arr.dtype
        assert got[name].shape == arr.shape
        assert got[name].tobytes() == arr.tobytes()


@pytest.fixture()
def path(tmp_path):
    return tmp_path / "cols.rcs"


class TestRoundTrip:
    def test_put_get_flushed(self, path):
        store = ColumnStore(path, block_bytes=1)
        store.put("k", ARRS)
        _assert_same(store.get("k"), ARRS)

    def test_put_get_pending(self, path):
        store = ColumnStore(path)  # default 1 MiB: nothing flushes
        store.put("k", ARRS)
        assert store.stats().pending_entries == len(ARRS)
        _assert_same(store.get("k"), ARRS)

    def test_reopen_after_checkpoint_is_clean(self, path):
        store = ColumnStore(path)
        store.put("k", ARRS)
        store.close()
        again = ColumnStore(path, mode="read")
        assert not again.recovered
        _assert_same(again.get("k"), ARRS)

    def test_reopen_without_checkpoint_recovers_from_blocks(self, path):
        store = ColumnStore(path, block_bytes=1)
        store.put("a", {"x": np.arange(5.0)})
        store.put("b", {"x": np.arange(9.0)})
        # no checkpoint: the file ends in block frames, no index/footer
        again = ColumnStore(path, mode="read")
        assert again.recovered
        assert again.keys() == ["a", "b"]
        assert again.get("b")["x"].tobytes() == np.arange(9.0).tobytes()

    def test_membership_and_listing(self, path):
        store = ColumnStore(path)
        store.put("k", ARRS)
        assert "k" in store and "missing" not in store
        assert store.keys() == ["k"]
        assert store.columns("k") == sorted(ARRS)
        assert store.columns("missing") is None
        assert store.get("missing") is None

    def test_column_subset_and_missing_column(self, path):
        store = ColumnStore(path)
        store.put("k", ARRS)
        assert list(store.get("k", columns=["wear"])) == ["wear"]
        with pytest.raises(StoreError) as exc:
            store.get("k", columns=["wear", "nope"])
        assert exc.value.reason == "missing-column"

    @pytest.mark.parametrize("codec", CODECS)
    def test_every_codec_round_trips(self, tmp_path, codec):
        store = ColumnStore(tmp_path / "c.rcs", codec=codec, block_bytes=1)
        store.put("k", ARRS)
        store.close()
        _assert_same(ColumnStore(tmp_path / "c.rcs", mode="read").get("k"), ARRS)

    def test_empty_arrays_round_trip(self, path):
        arrays = {"empty": np.array([], dtype=np.float32), "scalar": np.full((), 3.0)}
        store = ColumnStore(path, block_bytes=1)
        store.put("k", arrays)
        store.close()
        _assert_same(ColumnStore(path, mode="read").get("k"), arrays)


class TestSupersede:
    def test_latest_append_wins(self, path):
        store = ColumnStore(path, block_bytes=1)
        store.put("k", {"x": np.arange(3.0)})
        store.put("k", {"x": np.arange(4.0)})
        assert store.get("k")["x"].shape == (4,)
        store.close()
        assert ColumnStore(path, mode="read").get("k")["x"].shape == (4,)

    def test_scan_skips_superseded(self, path):
        store = ColumnStore(path, block_bytes=1)
        store.put("a", {"x": np.arange(3.0)})
        store.put("a", {"x": np.arange(5.0)})
        store.put("b", {"x": np.arange(2.0)})
        seen = [(key, arr.shape) for key, _, arr in store.scan()]
        assert seen == [("a", (5,)), ("b", (2,))]

    def test_column_values_concatenates_live_only(self, path):
        store = ColumnStore(path, block_bytes=1)
        store.put("a", {"x": np.array([1.0, 2.0])})
        store.put("a", {"x": np.array([3.0])})
        store.put("b", {"x": np.array([4.0, 5.0])})
        assert store.column_values("x").tolist() == [3.0, 4.0, 5.0]
        assert store.column_values("absent").tolist() == []


class TestDamage:
    def _store_with_two_keys(self, path) -> int:
        """Two flushed blocks, NO checkpoint: a writer died mid-append."""
        store = ColumnStore(path, block_bytes=1)
        store.put("a", {"x": np.arange(64.0)})
        good_end = path.stat().st_size
        store.put("b", {"x": np.arange(64.0) + 1})
        return good_end

    def test_torn_tail_is_quarantined_in_append_mode(self, path):
        good_end = self._store_with_two_keys(path)
        size = path.stat().st_size
        with open(path, "r+b") as fh:  # tear byte 4 of key b's frame
            fh.seek(good_end + 4)
            fh.write(b"\xff")
        store = ColumnStore(path, mode="append")
        assert store.recovered
        assert store.keys() == ["a"]
        assert store.tail_quarantined_bytes == size - good_end
        assert path.stat().st_size == good_end
        [quarantined] = list((path.parent / "corrupt").iterdir())
        assert quarantined.stat().st_size == size - good_end
        # the repaired store keeps working
        store.put("b", {"x": np.arange(3.0)})
        assert store.get("b")["x"].tolist() == [0.0, 1.0, 2.0]

    def test_read_mode_never_mutates(self, path):
        good_end = self._store_with_two_keys(path)
        with open(path, "r+b") as fh:
            fh.seek(good_end + 4)
            fh.write(b"\xff")
        before = path.read_bytes()
        store = ColumnStore(path, mode="read")
        assert store.keys() == ["a"]
        assert path.read_bytes() == before
        assert not (path.parent / "corrupt").exists()

    def test_read_mode_refuses_writes(self, path):
        ColumnStore(path, block_bytes=1).put("k", {"x": np.arange(2.0)})
        store = ColumnStore(path, mode="read")
        for attempt in (
            lambda: store.put("k", {"x": np.arange(2.0)}),
            store.checkpoint,
            store.compact,
        ):
            with pytest.raises(StoreError) as exc:
                attempt()
            assert exc.value.reason == "read-only"

    def test_read_mode_requires_existing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ColumnStore(tmp_path / "absent.rcs", mode="read")

    def test_damaged_block_is_a_store_error_not_wrong_bytes(self, path):
        store = ColumnStore(path, block_bytes=1)
        store.put("a", {"x": np.arange(64.0)})
        store.put("b", {"x": np.arange(64.0)})
        store.close()
        # flip one byte inside the FIRST block's payload: the index
        # still names it, but the frame CRC refuses to serve it
        target = store._blocks[0] + 20
        with open(path, "r+b") as fh:
            fh.seek(target)
            byte = fh.read(1)
            fh.seek(target)
            fh.write(bytes([byte[0] ^ 0xFF]))
        again = ColumnStore(path, mode="read")
        with pytest.raises(StoreError):
            again.get("a")
        assert again.corrupt_blocks == 1
        assert again.verify() != []

    def test_scan_skips_dead_damaged_blocks_raises_on_live(self, path):
        """A damaged block that only backs superseded entries is a
        tombstone: scans skip it.  The same damage backing a LIVE entry
        must raise -- a silently partial distribution is wrong data."""
        store = ColumnStore(path, block_bytes=1)
        store.put("k", {"x": np.arange(64.0)})
        first_block_end = path.stat().st_size
        store.put("k", {"x": np.arange(64.0) + 1})  # supersedes block 0
        store.put("other", {"x": np.arange(4.0)})
        store.close()
        with open(path, "r+b") as fh:
            fh.seek(store._blocks[0] + 20)
            fh.write(b"\xff\xff")
        assert first_block_end > store._blocks[0]
        again = ColumnStore(path, mode="read")
        got = {key: arr for key, _, arr in again.scan()}
        assert got["k"].tolist() == (np.arange(64.0) + 1).tolist()
        assert again.column_values("x").size == 68
        # now damage the LIVE block too: loud failure, never omission
        with open(path, "r+b") as fh:
            fh.seek(store._blocks[1] + 20)
            fh.write(b"\xff\xff")
        live_damaged = ColumnStore(path, mode="read")
        with pytest.raises(StoreError):
            list(live_damaged.scan())

    def test_malformed_block_toc_counts_as_corrupt_and_is_not_cached(self, path):
        """A block frame whose CRC holds but whose TOC does not parse is
        damage like a CRC failure: counted on every access, never cached."""
        store = ColumnStore(path, codec="none", block_bytes=1)
        store.put("k", {"x": np.arange(8.0)})
        store.close()
        start = store._blocks[0]
        raw = path.read_bytes()
        with open(path, "rb") as fh:
            tag, body, end = read_frame(fh, start, len(raw))
        assert tag == TAG_BLOCK
        bad = body.replace(b'"entries"', b'"entriez"', 1)  # same length
        path.write_bytes(raw[:start] + frame(TAG_BLOCK, compress("none", bad)) + raw[end:])
        again = ColumnStore(path, mode="read")
        assert not again.recovered  # the footer index still names the block
        with observed() as obs:
            for _ in range(2):
                with pytest.raises(StoreError) as exc:
                    again.get("k")
                assert exc.value.reason == "bad-block"
        assert again.corrupt_blocks == 2
        assert obs.registry.snapshot()["counters"]["store.block_corrupt"] == 2
        assert not again._block_cache

    def test_malformed_footer_index_falls_back_to_recovery_scan(self, path):
        """A CRC-valid index with a short entry is damage, not a crash:
        the open rebuilds the index from the block TOCs."""
        store = ColumnStore(path, block_bytes=1)
        store.put("k", ARRS)
        store.close()
        raw = path.read_bytes()
        index_offset = store._data_end
        with open(path, "rb") as fh:
            _, payload, _ = read_frame(fh, index_offset, len(raw))
        index = json.loads(zlib.decompress(payload))
        index["entries"]["k"]["wear"] = index["entries"]["k"]["wear"][:4]
        path.write_bytes(
            raw[:index_offset]
            + frame(TAG_INDEX, zlib.compress(canon_json(index), 6))
            + pack_footer(index_offset)
        )
        again = ColumnStore(path, mode="read")
        assert again.recovered
        _assert_same(again.get("k"), ARRS)
        # the result cache opens its store in append mode: that quarantines
        # the bad index and footer, and keeps serving the key
        owner = ColumnStore(path)
        assert owner.recovered and owner.tail_quarantined_bytes > 0
        assert path.stat().st_size == index_offset
        _assert_same(owner.get("k"), ARRS)

    def test_verify_clean_store_is_empty(self, path):
        store = ColumnStore(path, block_bytes=1)
        store.put("k", ARRS)
        store.close()
        assert store.verify() == []
        assert ColumnStore(path, mode="read").verify() == []

    def test_header_damage_recreates_in_append_quarantining_all(self, path):
        self._store_with_two_keys(path)
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.seek(1)
            fh.write(b"\x00")
        with pytest.raises(StoreError):
            ColumnStore(path, mode="read")  # read mode just refuses
        store = ColumnStore(path, mode="append")  # append mode repairs
        assert store.keys() == []
        assert store.tail_quarantined_bytes == size

    def test_format_mismatch_refused(self, path):
        # a file from some hypothetical v2 must be refused, not guessed
        from repro.store.format import TAG_HEADER, canon_json, frame

        path.write_bytes(
            frame(TAG_HEADER, canon_json({"format": "repro.store/v2", "codec": "zlib"}))
        )
        with pytest.raises(StoreError) as exc:
            ColumnStore(path, mode="read")
        assert exc.value.reason == "format-mismatch"

    @pytest.mark.parametrize("mode", ["append", "read"])
    @pytest.mark.parametrize(
        "payload", [b"[1, 2]", b"not json"], ids=["list", "not-json"]
    )
    def test_malformed_header_is_a_store_error(self, path, mode, payload):
        # the CRC vouches for the bytes, not for the writer: a header
        # frame that checks out but holds no JSON object is refused
        from repro.store.format import TAG_HEADER, frame

        path.write_bytes(frame(TAG_HEADER, payload))
        with pytest.raises(StoreError) as exc:
            ColumnStore(path, mode=mode)
        assert exc.value.reason == "bad-header"
        assert path.read_bytes() == frame(TAG_HEADER, payload)


class TestCompact:
    def test_compact_drops_superseded_and_shrinks(self, path):
        store = ColumnStore(path, block_bytes=1)
        big = np.arange(4096.0)
        for _ in range(4):
            store.put("k", {"x": big})
        store.close()
        before = path.stat().st_size
        report = store.compact()
        assert report["before_bytes"] == before
        assert report["after_bytes"] == path.stat().st_size < before
        assert report["keys"] == 1 and report["dropped_entries"] == 0
        assert store.get("k")["x"].tobytes() == big.tobytes()

    def test_compact_bytes_independent_of_history(self, tmp_path):
        """Same logical content, three different histories, one file."""
        arrays = {f"k{i}": {"x": np.arange(32.0) * i, "y": np.arange(8, dtype=np.int64)}
                  for i in range(5)}

        def build(name, order, supersede):
            store = ColumnStore(tmp_path / name, block_bytes=256)
            if supersede:
                store.put("k0", {"x": np.zeros(99), "y": np.zeros(4, dtype=np.int64)})
            for key in order:
                store.put(key, arrays[key])
            store.close()
            store.compact()
            return (tmp_path / name).read_bytes()

        keys = sorted(arrays)
        a = build("a.rcs", keys, supersede=False)
        b = build("b.rcs", list(reversed(keys)), supersede=True)
        assert a == b

    def test_compact_is_idempotent_at_small_blocks(self, path):
        store = ColumnStore(path, block_bytes=64)
        for i in range(6):
            store.put(f"k{i}", {"x": np.arange(40.0) * i})
        store.close()
        store.compact()
        first = path.read_bytes()
        # a freshly-loaded store (index iteration order differs from an
        # append-built one) must still converge to the same bytes
        ColumnStore(path, mode="append", block_bytes=64).compact()
        assert path.read_bytes() == first

    def test_compact_can_switch_codec(self, path):
        store = ColumnStore(path, codec="none", block_bytes=1)
        store.put("k", {"x": np.zeros(4096)})
        store.close()
        store.compact(codec="zlib")
        assert store.codec == "zlib"
        again = ColumnStore(path, mode="read")
        assert again.codec == "zlib"
        assert again.get("k")["x"].tobytes() == np.zeros(4096).tobytes()

    def test_compact_drops_unreadable_entries(self, path):
        store = ColumnStore(path, block_bytes=1)
        store.put("a", {"x": np.arange(64.0)})
        good_end = path.stat().st_size
        store.put("b", {"x": np.arange(64.0)})
        store.close()
        with open(path, "r+b") as fh:  # damage key b's block in place
            fh.seek(good_end + 20)
            fh.write(b"\xff\xff")
        # reopen via the footer (index still names both); b is damaged
        again = ColumnStore(path, mode="append")
        report = again.compact()
        assert report["dropped_entries"] == 1
        assert again.keys() == ["a"]
        assert ColumnStore(path, mode="read").verify() == []


class TestBlockReads:
    @pytest.mark.parametrize("block_bytes", [1 << 20, 4096])
    def test_each_block_toc_is_parsed_once_per_read_from_disk(
        self, path, monkeypatch, block_bytes
    ):
        """A warm compacted store parses a block's TOC when it reads the
        block from disk, never again per entry or per key: the cost of a
        resume stays linear in keys x columns."""
        rng = np.random.default_rng(0)
        columns = [f"c{j}" for j in range(6)]
        writer = ColumnStore(path, block_bytes=block_bytes)
        for i in range(100):
            writer.put(f"k{i:03d}", {name: rng.random(10) for name in columns})
        writer.compact()
        counts = {"parses": 0, "block_reads": 0}
        real_parse, real_read = store_module.unpack_block_body, store_module.read_frame

        def parse(body):
            counts["parses"] += 1
            return real_parse(body)

        def read(fh, offset, size):
            tag, payload, end = real_read(fh, offset, size)
            counts["block_reads"] += tag == TAG_BLOCK
            return tag, payload, end

        monkeypatch.setattr(store_module, "unpack_block_body", parse)
        monkeypatch.setattr(store_module, "read_frame", read)
        store = ColumnStore(path)
        blocks = len(store._blocks)
        for key in store.keys():
            assert sorted(store.get(key)) == columns
        for name in columns:
            assert store.column_values(name).size == 1000
        assert store.compact()["keys"] == 100
        assert counts["parses"] == counts["block_reads"]
        if blocks == 1:
            assert counts["parses"] == 1
        else:  # a scan of more blocks than the cache holds re-reads them
            assert counts["parses"] <= (2 + len(columns)) * blocks


class TestValidation:
    def test_bad_mode(self, path):
        with pytest.raises(ValueError):
            ColumnStore(path, mode="rw")

    def test_bad_codec(self, path):
        with pytest.raises(StoreError):
            ColumnStore(path, codec="zstd")

    def test_bad_block_bytes(self, path):
        with pytest.raises(ValueError):
            ColumnStore(path, block_bytes=0)

    def test_bad_keys_and_columns(self, path):
        store = ColumnStore(path)
        with pytest.raises(StoreError):
            store.put("", {"x": np.arange(2.0)})
        with pytest.raises(StoreError):
            store.put("k", {})
        with pytest.raises(StoreError):
            store.put("k", {"": np.arange(2.0)})

    def test_failed_put_stages_nothing(self, path):
        store = ColumnStore(path)
        with pytest.raises(StoreError):
            store.put("k", {"good": np.arange(2.0), "bad": np.array(["s"])})
        assert "k" not in store
        assert store.stats().pending_entries == 0

    def test_stats_shape(self, path):
        store = ColumnStore(path, block_bytes=1)
        store.put("k", ARRS)
        store.close()
        stats = store.stats().to_dict()
        assert stats["keys"] == 1
        assert stats["columns"] == len(ARRS)
        assert stats["blocks"] == 1
        assert stats["clean"] and not stats["recovered"]
        assert stats["file_bytes"] == os.path.getsize(path)
        assert stats["live_bytes"] == sum(a.nbytes for a in ARRS.values())
