"""File system semantics over a fake block layer, incl. capacity variance."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host.files import FileKind
from repro.host.filesystem import FileSystem, FsFullError


class FakeBlockLayer:
    """In-memory block layer with an adjustable capacity."""

    def __init__(self, capacity_pages=100, page_bytes=64):
        self.page_bytes = page_bytes
        self._capacity = capacity_pages
        self.pages: dict[int, bytes] = {}
        self.trims: list[int] = []

    def write_page(self, lpn, payload, file=None):
        self.pages[lpn] = bytes(payload)

    def read_page(self, lpn):
        return self.pages[lpn]

    def trim_page(self, lpn):
        self.pages.pop(lpn, None)
        self.trims.append(lpn)

    def capacity_pages(self):
        return self._capacity

    def shrink(self, pages):
        self._capacity -= pages


@pytest.fixture
def fs() -> FileSystem:
    return FileSystem(FakeBlockLayer())


class TestCreateDelete:
    def test_create_allocates_whole_pages(self, fs):
        record = fs.create("/a", FileKind.PHOTO, size_bytes=130)
        assert len(record.extents) == 3  # ceil(130/64)
        assert fs.used_pages() == 3

    def test_create_zero_byte_file_takes_one_page(self, fs):
        record = fs.create("/z", FileKind.DOCUMENT, size_bytes=0)
        assert len(record.extents) == 1

    def test_duplicate_path_rejected(self, fs):
        fs.create("/a", FileKind.PHOTO, 10)
        with pytest.raises(FileExistsError):
            fs.create("/a", FileKind.PHOTO, 10)

    def test_delete_trims_pages_and_frees_space(self, fs):
        record = fs.create("/a", FileKind.PHOTO, 130)
        lpns = list(record.extents)
        fs.delete("/a")
        assert fs.used_pages() == 0
        assert fs.block_layer.trims == lpns
        with pytest.raises(FileNotFoundError):
            fs.lookup("/a")

    def test_lpns_are_reused_after_delete(self, fs):
        first = fs.create("/a", FileKind.PHOTO, 64)
        lpn = first.extents[0]
        fs.delete("/a")
        second = fs.create("/b", FileKind.PHOTO, 64)
        assert second.extents[0] == lpn

    def test_content_callback_writes_pages(self, fs):
        fs.create("/c", FileKind.PHOTO, 128, content=lambda o: bytes([o]) * 10)
        pages = fs.read_file("/c")
        assert pages[0][:10] == b"\x00" * 10
        assert pages[1][:10] == b"\x01" * 10


class TestIO:
    def test_read_touches_access_metadata(self, fs):
        fs.create("/a", FileKind.PHOTO, 64)
        fs.advance_time(1.0)
        fs.read_file("/a")
        assert fs.lookup("/a").attributes.access_count == 1
        assert fs.lookup("/a").attributes.last_access_years == 1.0

    def test_overwrite_page_in_place(self, fs):
        fs.create("/a", FileKind.APP_METADATA, 128)
        fs.overwrite_page("/a", 1, b"new")
        assert fs.read_file("/a")[1] == b"new"

    def test_overwrite_out_of_range_rejected(self, fs):
        fs.create("/a", FileKind.APP_METADATA, 64)
        with pytest.raises(IndexError):
            fs.overwrite_page("/a", 5, b"x")


class TestCapacityVariance:
    def test_allocation_beyond_capacity_rejected(self, fs):
        with pytest.raises(FsFullError):
            fs.create("/big", FileKind.VIDEO, 64 * 200)

    def test_shrinking_capacity_creates_over_capacity_state(self, fs):
        """§4.3: device capacity may shrink under the live data."""
        fs.create("/a", FileKind.VIDEO, 64 * 90)
        assert fs.used_pages() <= fs.capacity_pages()
        fs.block_layer.shrink(20)
        assert fs.capacity_pages() == 80
        assert fs.used_pages() - fs.capacity_pages() == 10
        assert fs.free_pages() == 0

    def test_utilization(self, fs):
        fs.create("/a", FileKind.VIDEO, 64 * 50)
        assert fs.utilization() == pytest.approx(0.5)

    def test_time_monotonic(self, fs):
        fs.advance_time(1.0)
        with pytest.raises(ValueError):
            fs.advance_time(0.5)


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=64 * 5), min_size=1, max_size=15)
)
@settings(max_examples=60, deadline=None)
def test_used_pages_always_sums_extents(sizes):
    """Property: used_pages equals the sum of per-file extents after any
    create/delete interleaving."""
    fs = FileSystem(FakeBlockLayer(capacity_pages=1000))
    for i, size in enumerate(sizes):
        fs.create(f"/f{i}", FileKind.DOCUMENT, size)
        if i % 3 == 2:
            fs.delete(f"/f{i - 1}")
    expected = sum(len(r.extents) for r in fs.live_files())
    assert fs.used_pages() == expected
    # every live extent is backed by a written page
    for record in fs.live_files():
        for lpn in record.extents:
            assert lpn in fs.block_layer.pages
