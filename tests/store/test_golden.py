"""Format stability: the committed fixture IS the v1 spec, in bytes.

A persisted format must never drift silently -- an archive written
today has to open under every future build.  Three locks:

* rebuilding the fixture from source (``data/make_golden.py``) produces
  **byte-identical** files to the committed ones -- any writer change
  that moves a single byte trips here;
* the committed files *read back* to the exact expected arrays -- any
  reader change that reinterprets old bytes trips here;
* :data:`~repro.store.FORMAT` is pinned to the literal ``v1`` tag --
  bumping it is the one sanctioned way out of the first two locks
  (bump, regenerate fixtures, keep a v1 reader).
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.store import FORMAT, ColumnStore

DATA = Path(__file__).resolve().parent / "data"

#: belt on top of the rebuild comparison: the exact fixture digests
GOLDEN_SHA256 = {
    "none": "109dab9d0f1bab8cc6b9c9d8e22472fcf2610543ff6959043e6ac46b5b37ab83",
    "zlib": "a03e3c940e93b958305dd7c213a6336c27fd85453bfa76a5ab157a35b6bc5323",
}

BUMP_HINT = (
    "the on-disk store format changed. If that is intentional, bump "
    "repro.store.format.FORMAT explicitly (v1 -> v2), regenerate the "
    "fixtures with tests/store/data/make_golden.py, and keep a v1 "
    "reader; a silent byte-level change is never acceptable."
)


def _maker():
    spec = importlib.util.spec_from_file_location(
        "make_golden", DATA / "make_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("make_golden", module)
    spec.loader.exec_module(module)
    return module


def test_format_tag_is_pinned():
    assert FORMAT == "repro.store/v1", BUMP_HINT


@pytest.mark.parametrize("codec", ["none", "zlib"])
def test_rebuilt_fixture_is_byte_identical(tmp_path, codec):
    committed = (DATA / f"golden_v1_{codec}.rcs").read_bytes()
    rebuilt = _maker().build(tmp_path / "rebuilt.rcs", codec).read_bytes()
    assert rebuilt == committed, BUMP_HINT


@pytest.mark.parametrize("codec", ["none", "zlib"])
def test_committed_fixture_digest(codec):
    digest = hashlib.sha256((DATA / f"golden_v1_{codec}.rcs").read_bytes())
    assert digest.hexdigest() == GOLDEN_SHA256[codec], BUMP_HINT


@pytest.mark.parametrize("codec", ["none", "zlib"])
def test_committed_fixture_reads_back_exactly(codec):
    store = ColumnStore(DATA / f"golden_v1_{codec}.rcs", mode="read")
    assert not store.recovered  # the fixture ends in a clean checkpoint
    assert store.verify() == []
    expected = _maker().fixture_arrays()
    assert store.keys() == sorted(expected)
    for key, cols in expected.items():
        got = store.get(key)
        assert sorted(got) == sorted(cols)
        for name, arr in cols.items():
            assert got[name].dtype == arr.dtype, f"{key}/{name}"
            assert got[name].shape == arr.shape, f"{key}/{name}"
            assert got[name].tobytes() == arr.tobytes(), f"{key}/{name}"


def test_fixture_contains_a_superseded_entry():
    """The fixture pins supersede layout, not just a linear append log:
    the raw file carries more block frames than live keys need."""
    store = ColumnStore(DATA / "golden_v1_none.rcs", mode="read")
    live_columns = sum(len(store.columns(key)) for key in store.keys())
    toc_entries = sum(1 for _ in _all_toc_entries(store))
    assert toc_entries == live_columns + 1  # exactly one dead version


def _all_toc_entries(store):
    for ordinal in range(len(store._blocks)):
        toc, _, _ = store._block(ordinal)
        yield from toc["entries"]
