"""Property suite pinning the numpy ``PageMap`` to the dict reference.

``DictPageMap`` (``tests/ftl/ftl_oracles.py``) is the pre-vectorization
implementation, kept verbatim as the semantic oracle.  Hypothesis drives
both maps through the same *legal* operation sequences -- an embedded
allocator guarantees every ``record_write`` lands on a freshly
programmed page and every ``on_erase`` hits a fully dead block, exactly
the discipline the FTL enforces -- and every observable (lookups, valid counts, live scans,
mapped totals, freed-trim returns) must agree at every step.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftl_oracles import DictPageMap
from repro.ftl.mapping import PageMap

BLOCKS = 6
PAGES = 4
LPN_SPACE = 14  # < BLOCKS * PAGES so overwrite pressure builds

op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["write", "trim", "batch_write", "batch_trim", "erase"]),
        st.integers(min_value=0, max_value=LPN_SPACE - 1),
        st.lists(
            st.integers(min_value=0, max_value=LPN_SPACE - 1),
            min_size=1,
            max_size=PAGES,
        ),
    ),
    max_size=80,
)


class _Allocator:
    """Minimal FTL-shaped page allocator shared by both maps under test.

    Tracks per-block write frontiers so generated operations stay legal:
    writes go to fresh pages, erases only hit blocks with no live data.
    """

    def __init__(self) -> None:
        self.next_page = [0] * BLOCKS

    def place(self, count: int) -> tuple[int, int] | None:
        """(block, start_page) of a fresh ``count``-page run, or None."""
        for block in range(BLOCKS):
            if self.next_page[block] + count <= PAGES:
                start = self.next_page[block]
                self.next_page[block] += count
                return block, start
        return None

    def erasable(self, ref: DictPageMap) -> int | None:
        """A fully-written, fully-dead block, or None."""
        for block in range(BLOCKS):
            if self.next_page[block] > 0 and ref.valid_pages(block) == 0:
                return block
        return None


def _assert_equivalent(fast: PageMap, ref: DictPageMap) -> None:
    assert fast.mapped_count() == ref.mapped_count()
    assert fast.all_mapped_lpns() == ref.all_mapped_lpns()
    for lpn in range(LPN_SPACE):
        assert fast.lookup(lpn) == ref.lookup(lpn)
        assert fast.is_mapped(lpn) == ref.is_mapped(lpn)
    for block in range(BLOCKS):
        assert fast.valid_pages(block) == ref.valid_pages(block)
        assert sorted(fast.live_lpns(block)) == sorted(ref.live_lpns(block))
    counts = fast.valid_counts(np.arange(BLOCKS))
    assert counts.tolist() == [ref.valid_pages(b) for b in range(BLOCKS)]
    mapped = fast.is_mapped_many(np.arange(-2, LPN_SPACE + 2))
    assert mapped.tolist() == [
        ref.is_mapped(lpn) for lpn in range(-2, LPN_SPACE + 2)
    ]


@given(ops=op_strategy)
@settings(max_examples=60, deadline=None)
def test_pagemap_matches_dict_reference(ops):
    """Scalar + batched updates agree with the reference at every step."""
    fast = PageMap(BLOCKS, PAGES)
    ref = DictPageMap(BLOCKS, PAGES)
    alloc = _Allocator()
    for kind, lpn, lpns in ops:
        if kind == "write":
            placed = alloc.place(1)
            if placed is None:
                continue
            fast.record_write(lpn, placed)
            ref.record_write(lpn, placed)
        elif kind == "trim":
            assert fast.invalidate(lpn) == ref.invalidate(lpn)
        elif kind == "batch_write":
            placed = alloc.place(len(lpns))
            if placed is None:
                continue
            block, start = placed
            fast.record_writes(np.asarray(lpns), block, start)
            ref.record_writes(np.asarray(lpns), block, start)
        elif kind == "batch_trim":
            freed_fast = fast.invalidate_many(np.asarray(lpns))
            freed_ref = ref.invalidate_many(np.asarray(lpns))
            assert freed_fast.tolist() == freed_ref.tolist()
        else:  # erase
            block = alloc.erasable(ref)
            if block is None:
                continue
            fast.on_erase(block)
            ref.on_erase(block)
            alloc.next_page[block] = 0
        _assert_equivalent(fast, ref)


@given(
    lpns=st.lists(
        st.integers(min_value=0, max_value=LPN_SPACE - 1),
        min_size=1,
        max_size=PAGES,
        unique=True,
    )
)
@settings(max_examples=40, deadline=None)
def test_record_writes_assume_unique_matches_general_path(lpns):
    """The migration fast path is state-identical to the general one."""
    general = PageMap(BLOCKS, PAGES)
    trusted = PageMap(BLOCKS, PAGES)
    # pre-map every LPN (assume_unique callers hold already-mapped LPNs)
    for i, lpn in enumerate(range(LPN_SPACE)):
        addr = (i // PAGES, i % PAGES)
        general.record_write(lpn, addr)
        trusted.record_write(lpn, addr)
    block, start = BLOCKS - 1, 0
    arr = np.asarray(lpns, dtype=np.int64)
    general.record_writes(arr, block, start)
    trusted.record_writes(arr, block, start, assume_unique=True)
    assert general.all_mapped_lpns() == trusted.all_mapped_lpns()
    for lpn in range(LPN_SPACE):
        assert general.lookup(lpn) == trusted.lookup(lpn)
    for b in range(BLOCKS):
        assert general.valid_pages(b) == trusted.valid_pages(b)
        assert general.live_lpns(b) == trusted.live_lpns(b)


@pytest.mark.parametrize("cls", [PageMap, DictPageMap])
def test_on_erase_with_valid_pages_is_a_caller_bug(cls):
    """Erasing a block that still holds live data must raise, not corrupt."""
    page_map = cls(BLOCKS, PAGES)
    page_map.record_write(3, (1, 0))
    with pytest.raises(RuntimeError, match="valid pages"):
        page_map.on_erase(1)
    # the live mapping survived the refused erase
    assert page_map.lookup(3) == (1, 0)
    page_map.invalidate(3)
    page_map.on_erase(1)  # dead block erases fine
    assert page_map.valid_pages(1) == 0
