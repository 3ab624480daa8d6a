"""Page map invariants, including hypothesis-driven operation sequences."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ftl.mapping import PageMap


@pytest.fixture
def page_map() -> PageMap:
    return PageMap(total_blocks=4, pages_per_block=8)


class TestBasics:
    def test_unmapped_lookup_is_none(self, page_map):
        assert page_map.lookup(42) is None
        assert not page_map.is_mapped(42)

    def test_record_write_maps(self, page_map):
        page_map.record_writes([7], 1, 3)
        assert page_map.lookup(7) == (1, 3)
        assert page_map.valid_pages(1) == 1
        assert page_map.all_mapped_lpns() == [7]

    def test_overwrite_invalidates_old_copy(self, page_map):
        page_map.record_writes([7], 1, 3)
        page_map.record_writes([7], 2, 0)
        assert page_map.lookup(7) == (2, 0)
        assert page_map.valid_pages(1) == 0
        assert page_map.valid_pages(2) == 1

    def test_invalidate_returns_freed_address(self, page_map):
        page_map.record_writes([7], 1, 3)
        assert page_map.invalidate(7) == (1, 3)
        assert page_map.invalidate(7) is None
        assert page_map.valid_pages(1) == 0

    def test_live_lpns_reflects_current_mapping_only(self, page_map):
        page_map.record_writes([1], 0, 0)
        page_map.record_writes([2], 0, 1)
        page_map.record_writes([1], 0, 2)  # moved within the block
        live = dict((lpn, page) for page, lpn in
                    [(p, l) for p, l in page_map.live_lpns(0)])
        assert live == {2: 1, 1: 2}

    def test_erase_with_valid_pages_is_a_bug(self, page_map):
        page_map.record_writes([5], 3, 0)
        with pytest.raises(RuntimeError):
            page_map.on_erase(3)

    def test_erase_after_migration_ok(self, page_map):
        page_map.record_writes([5], 3, 0)
        page_map.record_writes([5], 2, 0)
        page_map.on_erase(3)
        assert page_map.valid_pages(3) == 0


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["write", "trim"]),
            st.integers(min_value=0, max_value=15),  # lpn
        ),
        max_size=60,
    )
)
@settings(max_examples=100, deadline=None)
def test_valid_counts_always_consistent(ops):
    """Property: per-block valid counts equal the number of LPNs whose
    current mapping points into that block, under any op sequence."""
    page_map = PageMap(total_blocks=3, pages_per_block=32)
    next_page = [0, 0, 0]
    for i, (op, lpn) in enumerate(ops):
        if op == "write":
            block = i % 3
            if next_page[block] >= 32:
                continue
            page_map.record_writes([lpn], block, next_page[block])
            next_page[block] += 1
        else:
            page_map.invalidate(lpn)
    for block in range(3):
        expected = sum(
            1
            for lpn in page_map.all_mapped_lpns()
            if page_map.lookup(lpn)[0] == block
        )
        assert page_map.valid_pages(block) == expected
