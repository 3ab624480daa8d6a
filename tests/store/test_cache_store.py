"""ResultCache x ColumnStore: arrays split out, everything else as was.

The integration contract: scalar points keep the exact legacy framed
pickle (bytes and all); array-carrying points persist a skeleton pickle
plus columns in the shared ``columns.rcs``; every store-side failure
degrades to a counted miss or a whole-value fallback -- the cache never
raises out of a degraded store and never serves approximate arrays.
"""

from __future__ import annotations

import errno
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.runner.cache import ResultCache
from repro.runner.record import unframe_record
from repro.store import COLUMN_SENTINEL, ColumnStore
from repro.store.format import TAG_HEADER, frame

KEY = "a" * 64
VALUE = {
    "devices": 7,
    "obs": {
        "wear": np.array([0.1, np.nan, -0.0, 2.5]),
        "retired": np.arange(7, dtype=np.int64),
    },
    "note": "scalars ride along",
}


def _payload(cache: ResultCache, key: str) -> dict:
    return pickle.loads(unframe_record((cache.root / f"{key}.pkl").read_bytes()))


class TestScalarPathUnchanged:
    def test_exact_legacy_payload_and_no_store_file(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, {"plain": [1, 2.5, "x"]}, wall_s=0.25)
        assert _payload(cache, KEY) == {"value": {"plain": [1, 2.5, "x"]}, "wall_s": 0.25}
        assert not (tmp_path / ResultCache.STORE_FILE).exists()
        assert "store" not in cache.storage_report()

    def test_unstorable_arrays_stay_in_the_pickle(self, tmp_path):
        cache = ResultCache(tmp_path)
        value = {"names": np.array(["a", "b"])}
        cache.store(KEY, value, wall_s=0.0)
        assert not (tmp_path / ResultCache.STORE_FILE).exists()
        loaded = cache.load(KEY)
        assert np.array_equal(loaded.value["names"], value["names"])


class TestArrayPath:
    def test_skeleton_pickle_plus_store_columns(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, VALUE, wall_s=1.5)
        payload = _payload(cache, KEY)
        assert payload["columns"] == ["obs.retired", "obs.wear"]
        assert payload["value"]["obs"]["wear"] == {COLUMN_SENTINEL: "obs.wear"}
        assert payload["value"]["note"] == "scalars ride along"
        store = ColumnStore(tmp_path / ResultCache.STORE_FILE, mode="read")
        assert store.columns(KEY) == ["obs.retired", "obs.wear"]

    def test_fresh_cache_object_loads_bit_identical(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.store(KEY, VALUE, wall_s=1.5)
        writer.finalize()
        loaded = ResultCache(tmp_path).load(KEY)
        assert loaded.wall_s == 1.5
        assert loaded.value["devices"] == 7
        for name in ("wear", "retired"):
            got, want = loaded.value["obs"][name], VALUE["obs"][name]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_load_works_without_finalize_via_recovery(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.store(KEY, VALUE, wall_s=1.5)
        # no finalize: the store file ends in block frames, no footer
        reader = ResultCache(tmp_path)
        assert reader.load(KEY) is not None
        assert reader.storage_report()["store"]["recovered"] is True

    def test_finalize_makes_reopen_clean(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.store(KEY, VALUE, wall_s=1.5)
        writer.finalize()
        store = ColumnStore(tmp_path / ResultCache.STORE_FILE, mode="read")
        assert not store.recovered

    def test_columns_are_on_disk_before_the_skeleton_appears(self, tmp_path):
        """The persist-before-proceed invariant: the moment a skeleton
        pickle is visible, its columns are already CRC-framed on disk
        -- a crash right after ``store()`` returns loses nothing."""
        cache = ResultCache(tmp_path)
        cache.store(KEY, VALUE, wall_s=1.5)
        # do NOT finalize and do NOT reuse the writer's open store:
        # a brand new reader sees only what hit the disk
        assert ResultCache(tmp_path).load(KEY) is not None

    def test_storage_report_store_fields(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, VALUE, wall_s=1.5)
        report = cache.storage_report()["store"]
        assert report["codec"] == "zlib"
        assert report["keys"] == 1
        assert report["file_bytes"] > 0
        assert report["column_misses"] == 0 and report["column_errors"] == 0


class TestDegradation:
    def test_damaged_column_is_a_quarantined_miss_then_heals(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.store(KEY, VALUE, wall_s=1.5)
        writer.finalize()
        store_path = tmp_path / ResultCache.STORE_FILE
        data = bytearray(store_path.read_bytes())
        data[60] ^= 0xFF  # inside the first block frame
        store_path.write_bytes(bytes(data))
        reader = ResultCache(tmp_path)
        assert reader.load(KEY) is None  # miss, never wrong bytes
        assert reader.column_misses == 1
        assert reader.corrupt_quarantined == 1
        assert not (tmp_path / f"{KEY}.pkl").exists()  # skeleton quarantined
        # the sweep recomputes and re-stores; the cache self-heals
        reader.store(KEY, VALUE, wall_s=2.0)
        reader.finalize()
        healed = ResultCache(tmp_path).load(KEY)
        assert healed is not None
        assert healed.value["obs"]["wear"].tobytes() == VALUE["obs"]["wear"].tobytes()

    def test_missing_store_file_is_a_counted_miss(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.store(KEY, VALUE, wall_s=1.5)
        writer.finalize()
        (tmp_path / ResultCache.STORE_FILE).unlink()
        reader = ResultCache(tmp_path)
        assert reader.load(KEY) is None
        assert reader.column_misses == 1

    def test_enospc_on_column_append_latches_passthrough(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        monkeypatch.setattr(
            ColumnStore, "put",
            lambda self, key, arrays: (_ for _ in ()).throw(
                OSError(errno.ENOSPC, "disk full")
            ),
        )
        cache.store(KEY, VALUE, wall_s=1.5)
        assert cache.passthrough
        assert cache.stores_dropped == 1
        assert not (tmp_path / f"{KEY}.pkl").exists()  # dropped, like any ENOSPC
        # hits for other (scalar) keys would still be served; new stores drop
        cache.store("b" * 64, {"plain": 1}, wall_s=0.0)
        assert cache.stores_dropped == 2

    def test_other_column_errors_fall_back_to_whole_pickle(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        monkeypatch.setattr(
            ColumnStore, "put",
            lambda self, key, arrays: (_ for _ in ()).throw(
                OSError(errno.EIO, "io error")
            ),
        )
        cache.store(KEY, VALUE, wall_s=1.5)
        assert cache.column_errors == 1
        assert not cache.passthrough
        payload = _payload(cache, KEY)
        assert "columns" not in payload  # whole-value fallback
        monkeypatch.undo()
        loaded = ResultCache(tmp_path).load(KEY)
        assert loaded.value["obs"]["wear"].tobytes() == VALUE["obs"]["wear"].tobytes()

    @pytest.mark.parametrize(
        "header", [b"[1, 2]", b"not json"], ids=["list", "not-json"]
    )
    def test_malformed_store_header_degrades_to_whole_pickles(self, tmp_path, header):
        # a header frame that passes its CRC but holds no JSON object
        (tmp_path / ResultCache.STORE_FILE).write_bytes(frame(TAG_HEADER, header))
        cache = ResultCache(tmp_path)
        cache.store(KEY, {"a": np.arange(3.0)}, wall_s=0.1)
        assert cache.storage_report()["store"]["failed"] is True
        assert "columns" not in _payload(cache, KEY)
        assert cache.load(KEY).value["a"].tobytes() == np.arange(3.0).tobytes()

    def test_unopenable_store_degrades_to_whole_pickles(self, tmp_path):
        # a directory where the store file should be: open fails forever
        (tmp_path / ResultCache.STORE_FILE).mkdir()
        cache = ResultCache(tmp_path)
        cache.store(KEY, VALUE, wall_s=1.5)
        report = cache.storage_report()["store"]
        assert report["failed"] is True
        assert "columns" not in _payload(cache, KEY)
        assert cache.load(KEY).value["obs"]["wear"].tobytes() == \
            VALUE["obs"]["wear"].tobytes()


class TestStoreCodecChoice:
    @pytest.mark.parametrize("codec", ["none", "lzma"])
    def test_cache_store_codec_is_respected(self, tmp_path, codec):
        """A store re-encoded by ``repro store compact --codec`` keeps
        serving the cache, and new keys append in the store's codec."""
        writer = ResultCache(tmp_path)
        writer.store(KEY, VALUE, wall_s=0.5)
        writer.finalize()
        store_path = tmp_path / ResultCache.STORE_FILE
        ColumnStore(store_path).compact(codec=codec)
        cache = ResultCache(tmp_path)
        hit = cache.load(KEY)
        assert hit.value["obs"]["wear"].tobytes() == VALUE["obs"]["wear"].tobytes()
        other = "b" * 64
        cache.store(other, VALUE, wall_s=0.5)
        cache.finalize()
        assert cache.storage_report()["store"]["codec"] == codec
        # every block must decode with the codec the header names
        store = ColumnStore(store_path, mode="read")
        assert store.codec == codec and store.verify() == []
        assert store.keys() == sorted([KEY, other])
        again = ResultCache(tmp_path).load(other)
        assert again.value["obs"]["retired"].tobytes() == \
            VALUE["obs"]["retired"].tobytes()


class TestOneAppender:
    def test_interleaved_caches_on_one_directory_load_bit_identical(self, tmp_path):
        """Two caches storing array values into one directory in turn
        (two sweeps sharing a cache dir): a fresh cache loads every key
        bit-identical and quarantines nothing."""
        caches = [ResultCache(tmp_path), ResultCache(tmp_path)]
        values = {}
        for i in range(8):
            key = f"{i:064x}"
            values[key] = {"obs": {"wear": np.full(4, i / 8.0),
                                   "retired": np.arange(3, dtype=np.int64) + i}}
            caches[i % 2].store(key, values[key], wall_s=0.0)
        for cache in caches:
            cache.finalize()
        fresh = ResultCache(tmp_path)
        for key, value in values.items():
            loaded = fresh.load(key)
            assert loaded is not None, key
            for name, want in value["obs"].items():
                assert loaded.value["obs"][name].tobytes() == want.tobytes(), key
        assert fresh.corrupt_quarantined == 0

    def test_second_cache_stores_whole_pickles_and_reads_the_store(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.store(KEY, VALUE, wall_s=1.5)
        other = ResultCache(tmp_path)
        other.store("b" * 64, VALUE, wall_s=1.5)
        assert "columns" not in _payload(other, "b" * 64)
        assert other.load(KEY).value["obs"]["wear"].tobytes() == \
            VALUE["obs"]["wear"].tobytes()
        writer.finalize()
        # the lock is free again: the next cache appends
        again = ResultCache(tmp_path)
        again.store("c" * 64, VALUE, wall_s=1.5)
        assert _payload(again, "c" * 64)["columns"] == ["obs.retired", "obs.wear"]

    def test_unjoinable_skeleton_is_a_plain_miss_without_the_lock(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.store("b" * 64, VALUE, wall_s=1.5)  # takes the lock
        reader = ResultCache(tmp_path)
        assert reader.load("b" * 64) is not None  # opens a read-only store
        writer.store(KEY, VALUE, wall_s=1.5)
        # the reader's read-only store predates KEY: a miss, not damage
        assert reader.load(KEY) is None
        assert reader.corrupt_quarantined == 0
        assert (tmp_path / f"{KEY}.pkl").exists()

    def test_caches_in_threads_on_one_directory_stay_bit_identical(self, tmp_path):
        """More writer threads than cores, switching often: whichever
        cache holds the lock, every key loads back bit-identical."""

        def write(worker: int) -> None:
            cache = ResultCache(tmp_path)
            for i in range(6):
                cache.store(f"{worker:032x}{i:032x}",
                            {"obs": {"wear": np.full(4, worker + i / 8.0)}}, wall_s=0.0)
            cache.finalize()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=write, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        fresh = ResultCache(tmp_path)
        for worker in range(4):
            for i in range(6):
                loaded = fresh.load(f"{worker:032x}{i:032x}")
                assert loaded is not None
                assert loaded.value["obs"]["wear"].tobytes() == \
                    np.full(4, worker + i / 8.0).tobytes()
        assert fresh.corrupt_quarantined == 0
