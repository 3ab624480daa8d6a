"""A minimal extent-based file system tolerant of capacity variance.

The host half of the paper's co-design (Figure 2): files map to logical
page extents; the block layer beneath routes logical pages to device
streams.  §4.3 requires the file system to "tolerate capacity-variance"
-- the device may shrink as worn blocks retire -- so capacity here is a
*quota observed at allocation time*, re-queried from the device on every
operation, rather than a constant.

The file system does not store payload bytes itself; it allocates LPNs
and delegates I/O to a :class:`~repro.host.block_layer.BlockLayer`-like
object (anything with ``write_page``/``read_page``/``trim_page``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .files import FileAttributes, FileKind, FileRecord

__all__ = ["FileSystem", "FsFullError"]


class FsFullError(Exception):
    """Raised when an allocation exceeds the device's current capacity."""


class FileSystem:
    """Flat namespace of files over a logical-page block device.

    Parameters
    ----------
    block_layer:
        Object providing ``write_page(lpn, payload, file)``,
        ``read_page(lpn)``, ``trim_page(lpn)``, ``page_bytes`` and
        ``capacity_pages()``.
    """

    def __init__(self, block_layer) -> None:
        self.block_layer = block_layer
        self.files: dict[int, FileRecord] = {}
        self._by_path: dict[str, int] = {}
        self._next_file_id = 1
        self._next_lpn = 0
        self._free_lpns: list[int] = []
        self.now_years = 0.0

    # -- time -----------------------------------------------------------------

    def advance_time(self, now_years: float) -> None:
        """Advance the host clock (monotonic)."""
        if now_years < self.now_years:
            raise ValueError("time cannot move backwards")
        self.now_years = now_years

    # -- namespace --------------------------------------------------------------

    def create(
        self,
        path: str,
        kind: FileKind,
        size_bytes: int,
        attributes: FileAttributes | None = None,
        content: Callable[[int], bytes] | None = None,
    ) -> FileRecord:
        """Create a file and write its content.

        Parameters
        ----------
        path:
            Unique file path.
        kind:
            File kind (drives default placement).
        size_bytes:
            Logical size; rounded up to whole pages for allocation.
        attributes:
            Initial attributes; defaults to creation at the current time.
        content:
            Optional generator mapping page ordinal -> payload bytes.
            Defaults to zero-filled pages.
        """
        if path in self._by_path:
            raise FileExistsError(path)
        page_bytes = self.block_layer.page_bytes
        npages = max(1, -(-size_bytes // page_bytes))
        self._check_capacity(npages)
        if attributes is None:
            attributes = FileAttributes(
                created_years=self.now_years, last_access_years=self.now_years
            )
        record = FileRecord(
            file_id=self._next_file_id,
            path=path,
            kind=kind,
            size_bytes=size_bytes,
            attributes=attributes,
        )
        self._next_file_id += 1
        try:
            for ordinal in range(npages):
                lpn = self._alloc_lpn()
                record.extents.append(lpn)
                payload = content(ordinal) if content is not None else b""
                self.block_layer.write_page(lpn, payload, record)
        except Exception:
            # transactional create: release any pages already written so
            # a device-level failure (e.g. partition exhaustion) does not
            # leak orphaned extents
            for lpn in record.extents:
                self.block_layer.trim_page(lpn)
                self._free_lpns.append(lpn)
            raise
        self.files[record.file_id] = record
        self._by_path[path] = record.file_id
        return record

    def lookup(self, path: str) -> FileRecord:
        """File record by path; raises ``FileNotFoundError``."""
        file_id = self._by_path.get(path)
        if file_id is None:
            raise FileNotFoundError(path)
        return self.files[file_id]

    def delete(self, path: str) -> None:
        """Delete a file, trimming its pages on the device."""
        record = self.lookup(path)
        for lpn in record.extents:
            self.block_layer.trim_page(lpn)
            self._free_lpns.append(lpn)
        record.extents.clear()
        record.deleted = True
        del self._by_path[path]
        del self.files[record.file_id]

    def live_files(self) -> Iterable[FileRecord]:
        """All current (non-deleted) files."""
        return self.files.values()

    # -- I/O ----------------------------------------------------------------------

    def read_file(self, path: str) -> list[bytes]:
        """Read every page of a file (as decoded payloads)."""
        record = self.lookup(path)
        record.touch(self.now_years)
        return [self.block_layer.read_page(lpn) for lpn in record.extents]

    def overwrite_page(self, path: str, ordinal: int, payload: bytes) -> None:
        """Rewrite one page of a file in place (logical update)."""
        record = self.lookup(path)
        if not 0 <= ordinal < len(record.extents):
            raise IndexError(f"page {ordinal} out of range for {path}")
        record.mark_modified(self.now_years)
        self.block_layer.write_page(record.extents[ordinal], payload, record)

    # -- capacity ----------------------------------------------------------------

    def used_pages(self) -> int:
        """Pages currently allocated to live files."""
        return sum(len(r.extents) for r in self.files.values())

    def capacity_pages(self) -> int:
        """Device capacity in pages, re-queried (capacity variance)."""
        return self.block_layer.capacity_pages()

    def free_pages(self) -> int:
        """Pages available for new allocations right now."""
        return max(0, self.capacity_pages() - self.used_pages())

    def utilization(self) -> float:
        """Fraction of current device capacity in use."""
        cap = self.capacity_pages()
        return self.used_pages() / cap if cap else 1.0

    # -- internals ------------------------------------------------------------------

    def _alloc_lpn(self) -> int:
        if self._free_lpns:
            return self._free_lpns.pop()
        lpn = self._next_lpn
        self._next_lpn += 1
        return lpn

    def _check_capacity(self, npages: int) -> None:
        if self.used_pages() + npages > self.capacity_pages():
            raise FsFullError(
                f"allocation of {npages} pages exceeds capacity "
                f"({self.used_pages()}/{self.capacity_pages()} used)"
            )
